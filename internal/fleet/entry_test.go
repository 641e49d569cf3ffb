package fleet

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/stats"
)

// newEntryAgg returns an aggregator of the report's histogram shape, as
// the decoder's target.
func newEntryAgg() *cellAgg {
	return &cellAgg{skin: stats.NewHistogram(skinLoC, skinHiC, skinBins)}
}

// randomEntry fills an aggregator and metrics with a random cell outcome
// whose floats are drawn from vals.
func randomEntry(rng *rand.Rand, vals []float64) (*cellAgg, *CellMetrics) {
	a := newEntryAgg()
	pick := func() float64 { return vals[rng.Intn(len(vals))] }
	for n := rng.Intn(400); n > 0; n-- {
		v := 25 + 15*rng.NormFloat64()
		a.skin.Add(v)
		a.skinM.Add(v)
		a.coreM.Add(v + 10)
	}
	a.overN, a.n, a.freqFrac = rng.Uint64(), rng.Uint64(), pick()
	m := &CellMetrics{
		Completed: rng.Intn(2) == 1,
		ExecS:     pick(), EnergyJ: pick(), AvgPowerW: pick(), ThrottleFrac: pick(),
		PerfLossFrac: pick(), MaxSkinC: pick(), MaxCoreC: pick(),
		Samples: rng.Uint64(),
	}
	return a, m
}

func bitsEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestCellEntryRoundTrip is the codec property test: random, empty,
// single-bin and all-bins-full aggregators, with NaN, ±Inf and -0 in every
// float field, decode bit-exactly into a dirty pooled-style aggregator and
// re-encode to identical bytes.
func TestCellEntryRoundTrip(t *testing.T) {
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1e-300, 36.6}
	rng := rand.New(rand.NewSource(3))
	type entry struct {
		a *cellAgg
		m *CellMetrics
	}
	var cases []entry
	for i := 0; i < 100; i++ {
		a, m := randomEntry(rng, special)
		cases = append(cases, entry{a, m})
	}
	cases = append(cases, entry{newEntryAgg(), &CellMetrics{}})
	single := newEntryAgg()
	single.skin.Add(math.NaN())
	cases = append(cases, entry{single, &CellMetrics{Completed: true, MaxSkinC: math.Inf(-1)}})
	full := newEntryAgg()
	for i := range full.skin.Bins {
		full.skin.Bins[i] = uint64(i + 1)
		full.skin.N += uint64(i + 1)
	}
	cases = append(cases, entry{full, &CellMetrics{Samples: math.MaxUint64}})

	for i, c := range cases {
		enc := appendCellEntry(nil, c.a, c.m)
		got, gotM := newEntryAgg(), &CellMetrics{}
		got.skin.Add(1) // stale pooled state the decode must overwrite
		got.overN = 7
		if err := decodeCellEntry(enc, got, gotM); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got.skin.N != c.a.skin.N || got.overN != c.a.overN || got.n != c.a.n || !bitsEqual(got.freqFrac, c.a.freqFrac) {
			t.Fatalf("case %d: aggregate scalars drifted", i)
		}
		for b := range c.a.skin.Bins {
			if got.skin.Bins[b] != c.a.skin.Bins[b] {
				t.Fatalf("case %d: bin %d = %d, want %d", i, b, got.skin.Bins[b], c.a.skin.Bins[b])
			}
		}
		for _, p := range [][2]stats.Moments{{got.skinM, c.a.skinM}, {got.coreM, c.a.coreM}} {
			if p[0].N != p[1].N || !bitsEqual(p[0].Sum, p[1].Sum) || !bitsEqual(p[0].MinV, p[1].MinV) || !bitsEqual(p[0].MaxV, p[1].MaxV) {
				t.Fatalf("case %d: moments %+v, want %+v", i, p[0], p[1])
			}
		}
		want, have := *c.m, *gotM
		for _, f := range [][2]float64{
			{want.ExecS, have.ExecS}, {want.EnergyJ, have.EnergyJ}, {want.AvgPowerW, have.AvgPowerW},
			{want.ThrottleFrac, have.ThrottleFrac}, {want.PerfLossFrac, have.PerfLossFrac},
			{want.MaxSkinC, have.MaxSkinC}, {want.MaxCoreC, have.MaxCoreC},
		} {
			if !bitsEqual(f[0], f[1]) {
				t.Fatalf("case %d: metrics %+v, want %+v", i, have, want)
			}
		}
		if want.Completed != have.Completed || want.Samples != have.Samples {
			t.Fatalf("case %d: metrics %+v, want %+v", i, have, want)
		}
		if again := appendCellEntry(nil, got, gotM); !bytes.Equal(again, enc) {
			t.Fatalf("case %d: re-encoding differs", i)
		}
	}
}

// TestFleetStoreRejectsBadEntries overwrites one warm entry with each
// malformed payload in turn — wrong magic, wrong version, a foreign
// histogram shape, truncation, a trailing byte. Each verifies as a store
// entry but fails the strict decoder: an Invalid miss, recomputed, the
// report unchanged, and the recompute heals the entry.
func TestFleetStoreRejectsBadEntries(t *testing.T) {
	registerStoreScenario(t, "store-mix-a", 4)
	registerStoreScenario(t, "store-mix-b", 5)
	registerStoreScenario(t, "store-mix-c", 6)
	st := openTestStore(t)
	spec := storeSpec(6)
	_, coldJSON, _ := runStoreFleet(t, st, spec)

	eng := &Engine{Workers: 1, BaseSeed: 11, Store: st}
	eng.init()
	key, ok := eng.cellDigest(spec.normalized(), DeriveCell(spec, 11, 2), kindCell)
	if !ok {
		t.Fatal("cell 2 not addressable")
	}
	good, ok := st.Get(key)
	if !ok {
		t.Fatal("cold run did not store cell 2")
	}
	a, m := newEntryAgg(), &CellMetrics{}
	if err := decodeCellEntry(good, a, m); err != nil {
		t.Fatal(err)
	}
	foreign := &cellAgg{skin: stats.NewHistogram(skinLoC, skinHiC, skinBins/2)}
	foreign.skinM, foreign.coreM = a.skinM, a.coreM
	mutate := func(f func([]byte) []byte) []byte { return f(append([]byte(nil), good...)) }
	bad := map[string][]byte{
		"magic":    mutate(func(b []byte) []byte { b[0] ^= 0x20; return b }),
		"version":  mutate(func(b []byte) []byte { b[len(cellMagic)]++; return b }),
		"shape":    appendCellEntry(nil, foreign, m),
		"truncate": good[:len(good)-1],
		"trailing": append(append([]byte(nil), good...), 0),
	}
	for name, payload := range bad {
		t.Run(name, func(t *testing.T) {
			if err := st.Put(key, payload); err != nil {
				t.Fatal(err)
			}
			before := st.Stats()
			_, warmJSON, _ := runStoreFleet(t, st, spec)
			after := st.Stats()
			if got := after.Invalid - before.Invalid; got != 1 {
				t.Errorf("bad entry counted invalid %d times, want 1", got)
			}
			if got := after.Misses - before.Misses; got != 1 {
				t.Errorf("re-run missed %d cells, want exactly the damaged one", got)
			}
			if !bytes.Equal(coldJSON, warmJSON) {
				t.Error("report diverged after a rejected entry")
			}
			if healed, _ := st.Get(key); !bytes.Equal(healed, good) {
				t.Error("recompute did not rewrite the entry")
			}
		})
	}
}

// TestFleetStoreOldJSONEntriesMiss seeds a store with entries in the
// former JSON form under the former kind tag: they live under other
// digests, so a run reads plain misses — nothing invalid — and computes.
func TestFleetStoreOldJSONEntriesMiss(t *testing.T) {
	registerStoreScenario(t, "store-mix-a", 4)
	registerStoreScenario(t, "store-mix-b", 5)
	registerStoreScenario(t, "store-mix-c", 6)
	st := openTestStore(t)
	spec := storeSpec(6)
	eng := &Engine{Workers: 1, BaseSeed: 11, Store: st}
	eng.init()
	for i := 0; i < spec.N; i++ {
		old, ok := eng.cellDigest(spec.normalized(), DeriveCell(spec, 11, i), "fleet-cell")
		if !ok {
			t.Fatalf("cell %d not addressable", i)
		}
		if err := st.PutJSON(old, map[string]any{
			"skin":   stats.NewHistogram(skinLoC, skinHiC, skinBins),
			"skin_m": stats.Moments{}, "core_m": stats.Moments{},
			"n": 0, "metrics": CellMetrics{},
		}); err != nil {
			t.Fatal(err)
		}
	}
	seeded := st.Stats()
	runStoreFleet(t, st, spec)
	s := st.Stats()
	if s.Invalid != seeded.Invalid || s.Hits != 0 || s.Misses != uint64(spec.N) {
		t.Errorf("old JSON entries: %+v, want %d plain misses", s, spec.N)
	}
}

// TestCellEntrySize pins the point of the binary codec: a real cell's
// entry payload stays a few hundred bytes, not the kilobytes the 720-bin
// histogram costs as JSON.
func TestCellEntrySize(t *testing.T) {
	registerStoreScenario(t, "store-mix-a", 4)
	registerStoreScenario(t, "store-mix-b", 5)
	registerStoreScenario(t, "store-mix-c", 6)
	st := openTestStore(t)
	spec := storeSpec(3)
	runStoreFleet(t, st, spec)
	eng := &Engine{Workers: 1, BaseSeed: 11, Store: st}
	eng.init()
	for i := 0; i < spec.N; i++ {
		key, _ := eng.cellDigest(spec.normalized(), DeriveCell(spec, 11, i), kindCell)
		payload, ok := st.Get(key)
		if !ok {
			t.Fatalf("cell %d not stored", i)
		}
		if len(payload) > 512 {
			t.Errorf("cell %d entry payload %d bytes", i, len(payload))
		}
	}
}
