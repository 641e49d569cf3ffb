package sim

import (
	"context"

	"math"
	"testing"

	"repro/internal/sysid"
	"repro/internal/workload"
)

// sharedCharacterization caches the §4 modeling flow across tests: the
// furnace and PRBS experiments are deterministic for a fixed seed, so every
// test can share one characterization.
var sharedChar *Characterization

func characterize(t *testing.T) *Characterization {
	t.Helper()
	if sharedChar == nil {
		ch, err := NewRunner().Characterize(context.Background(), 1)
		if err != nil {
			t.Fatalf("Characterize: %v", err)
		}
		sharedChar = ch
	}
	return sharedChar
}

func run(t *testing.T, bench string, pol Policy) *Result {
	t.Helper()
	ch := characterize(t)
	b, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner()
	res, err := r.Run(context.Background(), Options{Policy: pol, Bench: b, Seed: 5, Model: ch.Thermal, PowerModel: ch.Power})
	if err != nil {
		t.Fatalf("Run(%s, %v): %v", bench, pol, err)
	}
	return res
}

func TestPolicyString(t *testing.T) {
	cases := map[Policy]string{
		PolicyFan:      "with-fan",
		PolicyNoFan:    "without-fan",
		PolicyReactive: "reactive",
		PolicyDTPM:     "dtpm",
		Policy(99):     "policy(99)",
	}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("Policy(%d).String() = %q, want %q", int(p), got, want)
		}
	}
}

func TestDTPMRequiresModel(t *testing.T) {
	b, _ := workload.ByName("dijkstra")
	_, err := NewRunner().Run(context.Background(), Options{Policy: PolicyDTPM, Bench: b})
	if err == nil {
		t.Fatal("PolicyDTPM without a model should fail")
	}
}

func TestUnknownGovernor(t *testing.T) {
	b, _ := workload.ByName("dijkstra")
	_, err := NewRunner().Run(context.Background(), Options{Policy: PolicyNoFan, Bench: b, Governor: "warp-speed"})
	if err == nil {
		t.Fatal("unknown governor should fail")
	}
}

// TestNoFanExceedsConstraint reproduces the premise of Figure 1.1 and
// Figures 6.3/6.4: without the fan, high-activity benchmarks blow through
// the 63 °C constraint.
func TestNoFanExceedsConstraint(t *testing.T) {
	for _, bench := range []string{"matrixmult", "templerun", "basicmath"} {
		res := run(t, bench, PolicyNoFan)
		if res.MaxTemp < 64 {
			t.Errorf("%s without fan peaked at %.1f °C, want > 64", bench, res.MaxTemp)
		}
		if res.OverTMax <= 5 {
			t.Errorf("%s without fan spent only %.1fs above 63 °C", bench, res.OverTMax)
		}
	}
}

// TestDTPMRegulates verifies the central claim of §6.3.2: the proposed
// algorithm holds the maximum core temperature at or below the constraint
// without a fan.
func TestDTPMRegulates(t *testing.T) {
	for _, bench := range []string{"matrixmult", "templerun", "basicmath", "fft", "lu", "sha"} {
		res := run(t, bench, PolicyDTPM)
		if res.MaxTemp > 63.5 {
			t.Errorf("%s DTPM peaked at %.1f °C, want <= 63.5", bench, res.MaxTemp)
		}
		if res.OverTMax > 1.0 {
			t.Errorf("%s DTPM spent %.1fs above 63 °C, want <= 1", bench, res.OverTMax)
		}
		if !res.Completed {
			t.Errorf("%s DTPM did not complete", bench)
		}
	}
}

// TestDTPMPerformanceLoss checks §6.3.3: "the performance loss is only 3.3%
// on average, while it is less than 1% for low activity benchmarks. The
// performance loss hardly reaches 5% even for the most demanding
// applications."
func TestDTPMPerformanceLoss(t *testing.T) {
	var losses []float64
	for _, bench := range []string{"matrixmult", "templerun", "basicmath", "dijkstra", "patricia"} {
		base := run(t, bench, PolicyFan)
		dtpm := run(t, bench, PolicyDTPM)
		loss := 100 * (dtpm.ExecTime - base.ExecTime) / base.ExecTime
		losses = append(losses, loss)
		if loss > 8 {
			t.Errorf("%s DTPM performance loss %.1f%%, want <= 8%%", bench, loss)
		}
	}
	sum := 0.0
	for _, l := range losses {
		sum += l
	}
	if avg := sum / float64(len(losses)); avg > 5 {
		t.Errorf("average DTPM performance loss %.1f%%, want <= 5%%", avg)
	}
}

// TestDTPMPowerSavings checks the §6.3.3 savings ordering: high-activity
// benchmarks save more platform power than low-activity ones, and savings
// are positive across the board.
func TestDTPMPowerSavings(t *testing.T) {
	saving := func(bench string) float64 {
		base := run(t, bench, PolicyFan)
		dtpm := run(t, bench, PolicyDTPM)
		return 100 * (base.AvgPower - dtpm.AvgPower) / base.AvgPower
	}
	low := saving("dijkstra")
	high := saving("matrixmult")
	if low <= 0.5 {
		t.Errorf("low-activity saving %.1f%%, want > 0.5%% (fan avoidance)", low)
	}
	if high <= low {
		t.Errorf("high-activity saving %.1f%% not above low-activity %.1f%%", high, low)
	}
	if high < 5 {
		t.Errorf("high-activity saving %.1f%%, want >= 5%%", high)
	}
}

// TestDTPMVarianceReduction checks Figure 6.5: the steady-state temperature
// variance under DTPM is several times smaller than the baselines for the
// two benchmarks the paper plots. The fan comparison applies where the fan
// exhibits its limit cycle (templerun); for basicmath our calibrated fan
// happens to settle into a stable fixed point, so the reduction is checked
// against the no-fan default there (see EXPERIMENTS.md, fig6.5).
func TestDTPMVarianceReduction(t *testing.T) {
	for _, bench := range []string{"templerun", "basicmath"} {
		nofan := run(t, bench, PolicyNoFan)
		dtpm := run(t, bench, PolicyDTPM)
		if dtpm.SSTempVar <= 0 {
			t.Fatalf("%s: DTPM steady variance is zero", bench)
		}
		if ratio := nofan.SSTempVar / dtpm.SSTempVar; ratio < 3 {
			t.Errorf("%s: variance reduction vs no-fan %.1fx, want >= 3x", bench, ratio)
		}
	}
	fan := run(t, "templerun", PolicyFan)
	dtpm := run(t, "templerun", PolicyDTPM)
	if ratio := fan.SSTempVar / dtpm.SSTempVar; ratio < 3 {
		t.Errorf("templerun: variance reduction vs with-fan %.1fx, want >= 3x (paper ~6x)", ratio)
	}
}

// TestPredictionAccuracy checks §6.3.1: average prediction error below 3%
// in the run-time loop at the 1-second horizon, for representative
// benchmarks of each class.
func TestPredictionAccuracy(t *testing.T) {
	for _, bench := range []string{"matrixmult", "dijkstra", "patricia", "templerun"} {
		res := run(t, bench, PolicyDTPM)
		if res.PredMeanPct > 3.0 {
			t.Errorf("%s mean prediction error %.2f%%, want <= 3%%", bench, res.PredMeanPct)
		}
		if res.PredMaxPct > 7.0 {
			t.Errorf("%s max prediction error %.2f%%, want <= 7%%", bench, res.PredMaxPct)
		}
	}
}

// TestReactiveWorseThanDTPM checks the §6.2 baseline ordering: the
// fan-mimicking reactive heuristic regulates worse (it reacts after the
// threshold) and costs at least as much performance as DTPM.
func TestReactiveWorseThanDTPM(t *testing.T) {
	bench := "templerun"
	reactive := run(t, bench, PolicyReactive)
	dtpm := run(t, bench, PolicyDTPM)
	if reactive.MaxTemp <= dtpm.MaxTemp {
		t.Errorf("reactive maxT %.1f should exceed DTPM maxT %.1f", reactive.MaxTemp, dtpm.MaxTemp)
	}
	if reactive.OverTMax <= dtpm.OverTMax {
		t.Errorf("reactive over-constraint time %.1fs should exceed DTPM %.1fs",
			reactive.OverTMax, dtpm.OverTMax)
	}
}

// TestRecorderSeries verifies the full trace set is recorded when asked.
func TestRecorderSeries(t *testing.T) {
	ch := characterize(t)
	b, _ := workload.ByName("dijkstra")
	res, err := NewRunner().Run(context.Background(), Options{
		Policy: PolicyDTPM, Bench: b, Seed: 5, Record: true,
		Model: ch.Thermal, PowerModel: ch.Power,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"maxtemp", "freq_ghz", "power_w", "fan", "cores", "cluster", "gpu_mhz", "board", "bigpower_w"} {
		s := res.Rec.Series(name)
		if s == nil || s.Len() == 0 {
			t.Errorf("series %q missing or empty", name)
		}
	}
}

// TestPredHorizonOff: a negative PredHorizon switches the §6.3.1
// accounting off — Pred* stay zero and no "predmax_c" is recorded — and
// changes nothing else: every other Result field, every observed Sample,
// and every other recorded series is bitwise what PredHorizon 0 gives.
func TestPredHorizonOff(t *testing.T) {
	ch := characterize(t)
	b, _ := workload.ByName("templerun")
	for _, pol := range Policies() {
		runWith := func(horizon int) (*Result, []Sample) {
			var samples []Sample
			res, err := NewRunner().Run(context.Background(), Options{
				Policy: pol, Bench: b, Seed: 9, Record: true, PredHorizon: horizon,
				Model: ch.Thermal, PowerModel: ch.Power,
				Observer: func(s Sample) { samples = append(samples, s) },
			})
			if err != nil {
				t.Fatal(err)
			}
			return res, samples
		}
		on, onSamples := runWith(0)
		off, offSamples := runWith(-1)
		if on.PredMeanPct == 0 || on.Rec.Series("predmax_c") == nil {
			t.Fatalf("%v: PredHorizon 0 did no accounting", pol)
		}
		if off.PredMeanPct != 0 || off.PredMaxPct != 0 || off.PredMaxAbsC != 0 {
			t.Errorf("%v: PredHorizon -1 computed accuracy %g/%g/%g", pol, off.PredMeanPct, off.PredMaxPct, off.PredMaxAbsC)
		}
		if off.Rec.Series("predmax_c") != nil {
			t.Errorf("%v: PredHorizon -1 recorded predmax_c", pol)
		}
		onCore, offCore := *on, *off
		onCore.PredMeanPct, onCore.PredMaxPct, onCore.PredMaxAbsC = 0, 0, 0
		onCore.Rec, offCore.Rec = nil, nil
		if onCore != offCore {
			t.Errorf("%v: results differ beyond Pred*:\n  on  %+v\n  off %+v", pol, onCore, offCore)
		}
		if len(onSamples) != len(offSamples) {
			t.Fatalf("%v: %d samples vs %d", pol, len(onSamples), len(offSamples))
		}
		for k := range onSamples {
			if onSamples[k] != offSamples[k] {
				t.Fatalf("%v: step %d sample differs: %+v vs %+v", pol, k, onSamples[k], offSamples[k])
			}
		}
		for _, name := range on.Rec.Names() {
			if name == "predmax_c" {
				continue
			}
			a, b := on.Rec.Series(name), off.Rec.Series(name)
			if b == nil || len(a.Vals) != len(b.Vals) {
				t.Fatalf("%v: series %q missing or resized", pol, name)
			}
			for i := range a.Vals {
				if math.Float64bits(a.Vals[i]) != math.Float64bits(b.Vals[i]) || a.Times[i] != b.Times[i] {
					t.Fatalf("%v: series %q differs at %d", pol, name, i)
				}
			}
		}
	}
}

// TestDeterminism: identical options must give identical results.
func TestDeterminism(t *testing.T) {
	ch := characterize(t)
	b, _ := workload.ByName("sha")
	opt := Options{Policy: PolicyDTPM, Bench: b, Seed: 42, Model: ch.Thermal, PowerModel: ch.Power}
	r1, err := NewRunner().Run(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRunner().Run(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if r1.ExecTime != r2.ExecTime || r1.Energy != r2.Energy || r1.MaxTemp != r2.MaxTemp {
		t.Errorf("runs differ: %+v vs %+v", r1, r2)
	}
}

func TestSteadyWindow(t *testing.T) {
	// Crossing found: window starts at the crossing even if later than 30%.
	series := make([]float64, 100)
	for i := range series {
		series[i] = 40 + float64(i)*0.25 // reaches 60 at i=80
	}
	w := steadyWindow(series, 63)
	if len(w) != 20 {
		t.Errorf("window length %d, want 20 (crossing at 80)", len(w))
	}
	// Never hot: 30% fallback.
	for i := range series {
		series[i] = 40
	}
	w = steadyWindow(series, 63)
	if len(w) != 70 {
		t.Errorf("window length %d, want 70 (30%% fallback)", len(w))
	}
	if got := steadyWindow(nil, 63); len(got) != 0 {
		t.Errorf("empty series should give empty window")
	}
}

func TestIdleStateWarm(t *testing.T) {
	st := NewRunner().IdleState()
	if st.Board < 36 || st.Board > 50 {
		t.Errorf("idle board %.1f °C outside the 36-50 warm-idle range", st.Board)
	}
	if st.MaxCore() < st.Board-0.5 {
		t.Errorf("idle cores (%.1f) colder than board (%.1f)", st.MaxCore(), st.Board)
	}
}

// TestCharacterizationQuality validates the end-to-end §4 flow: the
// identified model must be stable and validate within the paper's bounds
// on an independent PRBS dataset.
func TestCharacterizationQuality(t *testing.T) {
	ch := characterize(t)
	if ch.Thermal == nil || ch.Power == nil {
		t.Fatal("characterization incomplete")
	}
	if !ch.Thermal.Stable() {
		t.Fatal("identified model unstable")
	}
	if math.Abs(ch.Thermal.Ts-0.1) > 1e-9 {
		t.Errorf("model Ts = %v, want 0.1", ch.Thermal.Ts)
	}
	if ch.Thermal.A.Rows != sysid.NumStates || ch.Thermal.B.Cols != sysid.NumInputs {
		t.Errorf("model shape %dx%d / %dx%d", ch.Thermal.A.Rows, ch.Thermal.A.Cols, ch.Thermal.B.Rows, ch.Thermal.B.Cols)
	}
}
