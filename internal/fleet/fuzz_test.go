package fleet

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"repro/internal/sched"
)

// FuzzFleetSpec holds the spec decoder to its contract on arbitrary input:
// ParseJSON either rejects with an error or yields a spec whose every cell
// derives a valid, bounded configuration — resolvable platform/scenario
// names, finite ambient shifts inside the declared jitter, non-negative
// seeds — with no panics anywhere on the path. Rejection must cover
// negative, NaN, infinite, and non-normalizable (all-zero) mix weights.
func FuzzFleetSpec(f *testing.F) {
	// Seed corpus: the shipped test populations plus targeted edge specs.
	for _, s := range []Spec{goldenSpec(), {N: 1}, {N: sched.MaxCells}} {
		data, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"n": 10, "platforms": [{"name": "exynos5410", "weight": 0.001}]}`))
	f.Add([]byte(`{"n": 10, "platforms": [{"name": "exynos5410", "weight": -1}]}`))
	f.Add([]byte(`{"n": 10, "scenarios": [{"name": "cold-start", "weight": 0}]}`))
	f.Add([]byte(`{"n": 10, "scenarios": [{"name": "cold-start", "weight": 1e308}, {"name": "gaming-session", "weight": 1e308}]}`))
	f.Add([]byte(`{"n": 10, "ambient_jitter_c": 25, "freeze_workload": true}`))
	f.Add([]byte(`{"n": 10, "policy": "reactive", "tmax_c": 30, "control_period_s": 10}`))
	f.Add([]byte(`{"n": 0}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseJSON(data)
		if err != nil {
			return
		}
		// A validated spec must re-validate (ParseJSON already did) and
		// derive sane cells at the population edges and a mid draw.
		if err := spec.Validate(); err != nil {
			t.Fatalf("parsed spec fails re-validation: %v\nspec: %+v", err, spec)
		}
		norm := spec.normalized()
		if !(totalWeight(norm.Platforms) > 0) || !(totalWeight(norm.Scenarios) > 0) {
			t.Fatalf("validated spec has non-normalizable mix: %+v", norm)
		}
		for _, i := range []int{0, spec.N / 2, spec.N - 1} {
			cfg := DeriveCell(spec, 99, i)
			if cfg.Index != i {
				t.Fatalf("cell %d: index %d", i, cfg.Index)
			}
			if !inMix(norm.Platforms, cfg.Platform) {
				t.Fatalf("cell %d: platform %q not in mix %+v", i, cfg.Platform, norm.Platforms)
			}
			if !inMix(norm.Scenarios, cfg.Scenario) {
				t.Fatalf("cell %d: scenario %q not in mix %+v", i, cfg.Scenario, norm.Scenarios)
			}
			if math.IsNaN(cfg.AmbientShiftC) || math.Abs(cfg.AmbientShiftC) > spec.AmbientJitterC {
				t.Fatalf("cell %d: ambient shift %g outside jitter %g", i, cfg.AmbientShiftC, spec.AmbientJitterC)
			}
			if cfg.Seed < 0 || cfg.ScenarioSeed < 0 {
				t.Fatalf("cell %d: negative seed %d/%d", i, cfg.Seed, cfg.ScenarioSeed)
			}
			// Derivation is pure.
			if cfg != DeriveCell(spec, 99, i) {
				t.Fatalf("cell %d: derivation not pure", i)
			}
		}
	})
}

// inMix reports whether name carries positive weight in the axis.
func inMix(ws []Weight, name string) bool {
	for _, w := range ws {
		if w.Name == name && w.Weight > 0 {
			return true
		}
	}
	return false
}

// FuzzCellEntry holds the store-entry decoder to its contract on arbitrary
// bytes: it never panics, and any payload it accepts re-encodes to exactly
// the same bytes (the codec is canonical, so a warm entry can only carry
// the state it was written with).
func FuzzCellEntry(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	for _, vals := range [][]float64{{0}, {math.NaN(), math.Inf(-1), math.Copysign(0, -1)}} {
		a, m := randomEntry(rng, vals)
		f.Add(appendCellEntry(nil, a, m))
	}
	f.Add(appendCellEntry(nil, newEntryAgg(), &CellMetrics{}))
	f.Add([]byte(cellMagic))
	f.Add([]byte(`{"skin":null}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, m := newEntryAgg(), &CellMetrics{}
		if err := decodeCellEntry(data, a, m); err != nil {
			return
		}
		if again := appendCellEntry(nil, a, m); !bytes.Equal(again, data) {
			t.Fatalf("accepted payload re-encodes differently:\nin:  %x\nout: %x", data, again)
		}
	})
}
