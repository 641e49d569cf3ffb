package dtpm

import (
	"testing"

	"repro/internal/platform"
	"repro/internal/sysid"
)

// coolDown feeds n cool intervals to the controller.
func coolDown(c *Controller, chip *platform.Chip, n int) Limits {
	in := coolInputs(chip)
	var lim Limits
	for i := 0; i < n; i++ {
		lim = c.Update(chip, in).Limits
	}
	return lim
}

// TestRelaxFullLadderInverse drives the controller through the complete
// degradation ladder and back: every limit must be released in the inverse
// order of escalation (GPU first, then cluster, then cores, then the
// frequency caps), one step at a time.
func TestRelaxFullLadderInverse(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EscalateIntervals = 1
	cfg.ReleaseIntervals = 1
	c := newTestController(t, cfg)
	chip := platform.NewChip()
	if err := chip.SetGPUFreq(chip.GPUDomain.MaxFreq()); err != nil {
		t.Fatal(err)
	}

	// Escalate all the way: hopeless temperatures with the GPU active.
	in := hotInputs(chip)
	in.GPUActive = true
	for i := range in.Temps {
		in.Temps[i] = 72
	}
	var lim Limits
	for k := 0; k < 60; k++ {
		lim = c.Update(chip, in).Limits
		// Apply hotplug and cluster switches like the kernel glue.
		for i := platform.CoresPerCluster - 1; i >= 0 && chip.BigCluster.OnlineCount() > lim.MaxBigCores; i-- {
			if chip.BigCluster.CoreOnline(i) {
				_ = chip.BigCluster.SetCoreOnline(i, false)
			}
		}
		if lim.ForceLittle && chip.ActiveKind() == platform.BigCluster {
			chip.SwitchCluster(platform.LittleCluster)
		}
		if lim.GPUFreqCap != 0 && lim.ForceLittle {
			break
		}
	}
	if !lim.ForceLittle || lim.GPUFreqCap == 0 {
		t.Fatalf("ladder did not fully escalate: %+v", lim)
	}

	// Phase 1: the GPU cap must lift (step by step) before ForceLittle.
	sawGPUFree := false
	for k := 0; k < 200 && !sawGPUFree; k++ {
		lim = coolDown(c, chip, 1)
		if lim.GPUFreqCap == 0 {
			sawGPUFree = true
		}
		if !lim.ForceLittle && !sawGPUFree {
			t.Fatal("ForceLittle released before the GPU cap")
		}
	}
	if !sawGPUFree {
		t.Fatal("GPU cap never released")
	}

	// Phase 2: ForceLittle lifts next; the kernel switches back to big.
	for k := 0; k < 50 && lim.ForceLittle; k++ {
		lim = coolDown(c, chip, 1)
	}
	if lim.ForceLittle {
		t.Fatal("ForceLittle never released")
	}
	chip.SwitchCluster(platform.BigCluster)

	// Phase 3: cores come back one at a time.
	prev := lim.MaxBigCores
	for k := 0; k < 100 && lim.MaxBigCores < platform.CoresPerCluster; k++ {
		lim = coolDown(c, chip, 1)
		if lim.MaxBigCores > prev+1 {
			t.Fatalf("core limit jumped %d -> %d", prev, lim.MaxBigCores)
		}
		if lim.MaxBigCores > prev {
			for i := 0; i < platform.CoresPerCluster && chip.BigCluster.OnlineCount() < lim.MaxBigCores; i++ {
				if !chip.BigCluster.CoreOnline(i) {
					_ = chip.BigCluster.SetCoreOnline(i, true)
				}
			}
		}
		prev = lim.MaxBigCores
	}
	if lim.MaxBigCores != platform.CoresPerCluster {
		t.Fatalf("cores never fully restored: %d", lim.MaxBigCores)
	}

	// Phase 4: the frequency caps lift last.
	for k := 0; k < 400; k++ {
		lim = coolDown(c, chip, 1)
		if lim == (Limits{MaxBigCores: platform.CoresPerCluster, OfflineCore: -1}) {
			return
		}
	}
	t.Fatalf("limits never fully released: %+v", lim)
}

// TestRelaxHoldsWithinMargin: ladder limits (core shedding) are released
// only after predictions fall below TMax - ReleaseMargin; predictions just
// under the constraint must NOT bring cores back. (Frequency caps are
// different: budget tracking may raise them whenever the budget allows —
// "only as much as needed".)
func TestRelaxHoldsWithinMargin(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ReleaseIntervals = 1
	c := newTestController(t, cfg)
	c.limits.MaxBigCores = 3 // as if a core had been shed
	chip := platform.NewChip()

	// Predictions land between TMax-ReleaseMargin (59) and the budget
	// target (61.5): no violation, but not safe enough to relax.
	in := hotInputs(chip)
	for i := range in.Temps {
		in.Temps[i] = 60
	}
	in.Powers[platform.Big] = 3.2
	for k := 0; k < 50; k++ {
		dec := c.Update(chip, in)
		if dec.Violation {
			t.Fatalf("violation predicted at 60 °C / 3.2 W (pred %.1f)", dec.PredictedMax)
		}
		if dec.Limits.MaxBigCores != 3 {
			t.Fatalf("core limit relaxed inside the margin at k=%d: %+v", k, dec.Limits)
		}
	}
}

// TestTrackBudgetUpOnLittle: budget tracking must also raise the little
// cluster's cap when execution lives there.
func TestTrackBudgetUpOnLittle(t *testing.T) {
	c := newTestController(t, DefaultConfig())
	chip := platform.NewChip()
	chip.SwitchCluster(platform.LittleCluster)
	c.limits.LittleFreqCap = chip.LittleCluster.Domain.MinFreq()

	in := Inputs{
		Temps:        []float64{40, 40, 40, 40},
		Powers:       [sysid.NumInputs]float64{0.02, 0.3, 0.05, 0.2},
		GovernorFreq: chip.LittleCluster.Domain.MaxFreq(),
	}
	var lim Limits
	for k := 0; k < 300; k++ {
		lim = c.Update(chip, in).Limits
		if lim.LittleFreqCap == 0 {
			return // fully released by budget tracking + relax
		}
	}
	t.Fatalf("little cap never released: %+v", lim)
}

// TestOneStepBudgetSmallerThanHorizonWhileRising: while the temperature is
// rising, the one-step budget exceeds the horizon budget (that is the
// under-throttling failure mode the horizon form fixes).
func TestOneStepBudgetSmallerThanHorizonWhileRising(t *testing.T) {
	chip := platform.NewChip()
	mk := func(oneStep bool) float64 {
		cfg := DefaultConfig()
		cfg.OneStepBudget = oneStep
		c := newTestController(t, cfg)
		in := hotInputs(chip)
		for i := range in.Temps {
			in.Temps[i] = 60.5 // below target, still rising under 3.5 W
		}
		dec := c.Update(chip, in)
		if !dec.Violation {
			t.Fatalf("no violation predicted at 59 °C under full power (oneStep=%v)", oneStep)
		}
		return dec.TotalBudget
	}
	horizon := mk(false)
	oneStep := mk(true)
	if oneStep <= horizon {
		t.Errorf("one-step budget %.2f W not above horizon budget %.2f W while rising",
			oneStep, horizon)
	}
}
