package sysid

import (
	"testing"

	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/sensor"
	"repro/internal/thermal"
)

// noisyRig builds a rig with sensor noise scaled by a factor.
func noisyRig(seed int64, noiseScale float64) *Rig {
	cfg := sensor.DefaultConfig()
	cfg.TempNoiseStd *= noiseScale
	cfg.PowerNoiseStd *= noiseScale
	return &Rig{
		GT:      power.DefaultGroundTruth(),
		Thermal: thermal.DefaultParams(),
		Sensors: sensor.NewBank(cfg, seed),
		Ts:      0.1,
	}
}

// TestIdentificationUnderHeavyNoise: with 5x the default sensor noise the
// identified model must remain stable and validate within a usable bound
// (the paper's methodology has to survive real sensor quality).
func TestIdentificationUnderHeavyNoise(t *testing.T) {
	rig := noisyRig(9, 5)
	model, datasets, err := rig.CharacterizeThermal()
	if err != nil {
		t.Fatalf("identification failed under heavy noise: %v", err)
	}
	if !model.Stable() {
		t.Fatal("identified model unstable under heavy noise")
	}
	meanPct, _, _ := ValidationError(model, datasets[platform.Big], 10)
	if meanPct > 10 {
		t.Errorf("validation error %.2f%% under 5x noise, want <= 10%%", meanPct)
	}
}

// TestIdentificationWithIdealSensors: noise-free identification should be
// nearly perfect at the 1 s horizon.
func TestIdentificationWithIdealSensors(t *testing.T) {
	rig := &Rig{
		GT:      power.DefaultGroundTruth(),
		Thermal: thermal.DefaultParams(),
		Sensors: sensor.NewBank(sensor.IdealConfig(), 1),
		Ts:      0.1,
	}
	model, datasets, err := rig.CharacterizeThermal()
	if err != nil {
		t.Fatal(err)
	}
	meanPct, _, _ := ValidationError(model, datasets[platform.Big], 10)
	if meanPct > 1.5 {
		t.Errorf("ideal-sensor validation error %.2f%%, want <= 1.5%%", meanPct)
	}
}

// TestLeakageFitUnderHeavyNoise: the Gauss-Newton furnace fit must still
// converge to a physically sensible law under 5x noise.
func TestLeakageFitUnderHeavyNoise(t *testing.T) {
	rig := noisyRig(11, 5)
	leak, err := rig.CharacterizeLeakage()
	if err != nil {
		t.Fatalf("leakage fit failed: %v", err)
	}
	gt := rig.GT.Res[platform.Big].Leak
	for _, temp := range []float64{45, 60, 75} {
		fit := leak.Power(temp, 1.25)
		ref := gt.Power(temp, 1.25)
		if rel := abs100(fit-ref) / ref; rel > 20 {
			t.Errorf("fitted leakage at %.0f C off by %.0f%% under heavy noise", temp, rel)
		}
	}
	// Monotone and convex-ish growth must survive.
	if !(leak.Power(80, 1.25) > leak.Power(60, 1.25) && leak.Power(60, 1.25) > leak.Power(40, 1.25)) {
		t.Error("fitted leakage no longer monotone in temperature")
	}
}

// TestDatasetTooShort: identification on a dataset with fewer samples than
// parameters must fail loudly, not return garbage.
func TestDatasetTooShort(t *testing.T) {
	d := &Dataset{Ts: 0.1, Ambient: 30}
	d.Append([]float64{40, 40, 40, 40}, []float64{1, 0, 0, 0})
	d.Append([]float64{41, 41, 41, 41}, []float64{1, 0, 0, 0})
	if _, err := Identify(d); err == nil {
		t.Error("two-sample dataset accepted")
	}
}

// TestDatasetConstantInput: a dataset with no excitation anywhere cannot
// identify any B column and must be rejected.
func TestDatasetConstantInput(t *testing.T) {
	d := &Dataset{Ts: 0.1, Ambient: 30}
	for i := 0; i < 200; i++ {
		d.Append([]float64{40, 40, 40, 40}, []float64{1, 0.5, 0.2, 0.3})
	}
	if _, err := Identify(d); err == nil {
		t.Error("zero-excitation dataset accepted")
	}
}

// TestPRBSSeedsDiffer: different LFSR seeds must give different sequences
// (sanity for the per-resource experiments).
func TestPRBSSeedsDiffer(t *testing.T) {
	a := NewPRBS(0x2F3).HoldSequence(64, 1)
	b := NewPRBS(0x11).HoldSequence(64, 1)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical PRBS sequences")
	}
}

func abs100(v float64) float64 {
	if v < 0 {
		v = -v
	}
	return 100 * v
}
