// Package fleet is the population layer on top of the simulator: where a
// campaign sweeps a small cartesian grid of configurations, a fleet
// simulates N virtual devices (thousands and up) drawn from a declarative
// mix — platform market shares, scenario usage shares, and per-device
// perturbations of ambient temperature, workload jitter, and sensor noise.
// The product is not N traces but one aggregate report: per-platform /
// per-scenario distributions of skin temperature, throttle time, energy,
// and performance loss across the population — the numbers a production
// DTPM rollout would be judged on.
//
// Determinism is inherited from the campaign engine and extended to the
// population draw: every device cell derives its entire configuration
// (platform, scenario, seeds, ambient shift) from the fleet base seed and
// its own index through a splitmix-style stream, so cell k is the same
// device in a 10-cell smoke run and a 100 000-cell sweep, any cell replays
// bit-identically in isolation (ReplayCell), and the aggregate report is
// byte-identical at any worker count.
package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/platform"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Spec bounds: generous for any plausible population, tight enough that a
// fuzzed spec cannot declare an unbounded amount of work. The population
// size N is bounded by sched.MaxCells.
const (
	// MaxAmbientJitter bounds the ambient perturbation half-width (°C).
	MaxAmbientJitter = 25
	// MinTMax / MaxTMax bound an explicit thermal constraint (°C).
	MinTMax = 30
	MaxTMax = 120
	// MinControlPeriod / MaxControlPeriod bound an explicit kernel tick (s).
	MinControlPeriod = 0.01
	MaxControlPeriod = 10
)

// Weight is one entry of a mix axis: a registered name and its non-negative
// draw weight. Weights need not sum to 1 — they are normalized over the
// axis — but the axis total must be positive and every weight finite.
type Weight struct {
	Name   string  `json:"name"`
	Weight float64 `json:"weight"`
}

// Spec declares a device population. The zero value is not runnable; N is
// required, everything else defaults to the paper's configuration: DTPM
// policy, 63 °C constraint, 100 ms control period, the default platform,
// and the whole scenario library in equal shares.
type Spec struct {
	// Name labels the fleet in reports (optional).
	Name string `json:"name,omitempty"`
	// N is the population size (required, 1..sched.MaxCells).
	N int `json:"n"`
	// Policy is the thermal-management configuration for every device
	// ("" = dtpm; also: with-fan, without-fan, reactive).
	Policy string `json:"policy,omitempty"`
	// TMaxC overrides the thermal constraint (0 = the paper's 63 °C).
	TMaxC float64 `json:"tmax_c,omitempty"`
	// ControlPeriodS overrides the kernel tick (0 = the paper's 100 ms).
	ControlPeriodS float64 `json:"control_period_s,omitempty"`
	// Platforms is the platform mix (registered profile names with draw
	// weights); empty means the default platform only.
	Platforms []Weight `json:"platforms,omitempty"`
	// Scenarios is the scenario mix (library names with draw weights);
	// empty means the whole library in equal shares.
	Scenarios []Weight `json:"scenarios,omitempty"`
	// AmbientJitterC perturbs each device's ambient profile by a uniform
	// shift in [-AmbientJitterC, +AmbientJitterC] °C — devices in cool
	// offices and hot cars (0 = everyone at the scenario's nominal
	// ambient).
	AmbientJitterC float64 `json:"ambient_jitter_c,omitempty"`
	// FreezeWorkload pins every device to its scenario's own demand-jitter
	// stream instead of drawing a per-device one, so the whole population
	// runs the exact same workload realization and only the environment
	// and sensor noise vary.
	FreezeWorkload bool `json:"freeze_workload,omitempty"`
}

// normalized returns the spec with every defaulted axis materialized, so
// cell derivation and reporting see explicit values. Weights are kept as
// declared (normalization to probabilities happens in the draw).
func (s Spec) normalized() Spec {
	if s.Policy == "" {
		s.Policy = sim.PolicyDTPM.String()
	}
	if s.TMaxC == 0 {
		s.TMaxC = 63
	}
	if s.ControlPeriodS == 0 {
		s.ControlPeriodS = 0.1
	}
	if len(s.Platforms) == 0 {
		s.Platforms = []Weight{{Name: platform.DefaultName, Weight: 1}}
	}
	if len(s.Scenarios) == 0 {
		names := scenario.Names()
		s.Scenarios = make([]Weight, len(names))
		for i, n := range names {
			s.Scenarios[i] = Weight{Name: n, Weight: 1}
		}
	}
	return s
}

// validWeights checks one mix axis: every name resolvable through lookup,
// every weight finite and non-negative, and a positive total (the axis must
// be normalizable into draw probabilities).
func validWeights(axis string, ws []Weight, lookup func(string) error) error {
	total := 0.0
	for i, w := range ws {
		if w.Name == "" {
			return fmt.Errorf("fleet: %s[%d]: missing name", axis, i)
		}
		if err := lookup(w.Name); err != nil {
			return fmt.Errorf("fleet: %s[%d]: %w", axis, i, err)
		}
		if math.IsNaN(w.Weight) || math.IsInf(w.Weight, 0) || w.Weight < 0 {
			return fmt.Errorf("fleet: %s[%d] (%s): weight %g must be finite and non-negative", axis, i, w.Name, w.Weight)
		}
		total += w.Weight
	}
	// The total must be a positive FINITE number: an overflowed (+Inf)
	// total makes every cumulative draw comparison vacuous and would
	// silently collapse the declared mix onto its last entry.
	if !(total > 0) || math.IsInf(total, 0) {
		return fmt.Errorf("fleet: %s mix total %g is not a positive finite weight, cannot normalize", axis, total)
	}
	return nil
}

// Validate checks the spec against the package bounds and the platform and
// scenario registries, including the cross product: every positive-weight
// scenario must be schedulable on every positive-weight platform, so a
// mix mistake fails in milliseconds instead of surfacing as thousands of
// collected cell errors.
func (s Spec) Validate() error {
	s = s.normalized()
	if s.N < 1 || s.N > sched.MaxCells {
		return fmt.Errorf("fleet: n %d out of range [1, %d]", s.N, sched.MaxCells)
	}
	if _, err := sim.ParsePolicy(s.Policy); err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	if !finiteIn(s.TMaxC, MinTMax, MaxTMax) {
		return fmt.Errorf("fleet: tmax_c %g out of range [%d, %d]", s.TMaxC, MinTMax, MaxTMax)
	}
	if !finiteIn(s.ControlPeriodS, MinControlPeriod, MaxControlPeriod) {
		return fmt.Errorf("fleet: control_period_s %g out of range [%g, %d]", s.ControlPeriodS, MinControlPeriod, MaxControlPeriod)
	}
	if !finiteIn(s.AmbientJitterC, 0, MaxAmbientJitter) {
		return fmt.Errorf("fleet: ambient_jitter_c %g out of range [0, %d]", s.AmbientJitterC, MaxAmbientJitter)
	}
	if err := validWeights("platforms", s.Platforms, func(name string) error {
		_, err := platform.ByName(name)
		return err
	}); err != nil {
		return err
	}
	if err := validWeights("scenarios", s.Scenarios, func(name string) error {
		_, err := scenario.ByName(name)
		return err
	}); err != nil {
		return err
	}
	for _, pw := range s.Platforms {
		if pw.Weight <= 0 {
			continue
		}
		desc, err := platform.ByName(pw.Name)
		if err != nil {
			return err
		}
		for _, sw := range s.Scenarios {
			if sw.Weight <= 0 {
				continue
			}
			sc, err := scenario.ByName(sw.Name)
			if err != nil {
				return err
			}
			if err := scenario.ValidateFor(sc, desc); err != nil {
				return fmt.Errorf("fleet: mix pairs scenario %q with platform %q: %w", sw.Name, pw.Name, err)
			}
		}
	}
	return nil
}

// ParseJSON decodes and validates a fleet spec. Unknown fields and trailing
// data are errors, matching the scenario spec convention: a typo in a spec
// file must not silently become a default.
func ParseJSON(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("fleet: %w", err)
	}
	if dec.More() {
		return Spec{}, fmt.Errorf("fleet: trailing data after spec")
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

func finiteIn(v, lo, hi float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= lo && v <= hi
}
