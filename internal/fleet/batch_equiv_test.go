package fleet

import (
	"context"
	"math"
	"os"
	"strconv"
	"sync"
	"testing"

	"repro/internal/platform"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// A fleet runs every device through the one per-device kernel twice over:
// in batch (the aggregate path, which skips the §6.3.1 prediction
// accounting and records nothing) and standalone (ReplayCell's recorded
// path, accounting on). These tests hold both to byte-identity — not
// "close", the same bits — over every registered platform x library
// scenario x policy, and hold the kernel's pooled per-worker arenas to
// byte-identity with fresh state under any reuse pattern. The prediction
// fields (PredMeanPct, PredMaxPct, PredMaxAbsC) are the one documented
// difference, and no fleet output consumes them.

// equivPeriod / equivDuration keep each equivalence run to ~50 control
// intervals so the full matrix stays cheap. BATCH_EQUIV_N (the nightly CI
// knob) adds a wider device sweep on top of the default widths.
const (
	equivPeriod   = 0.25
	equivDuration = 12
)

var characterizations = map[string]*sim.Characterization{}

// deviceFor returns a runner plus characterization for a platform, cached
// across the package's equivalence tests (characterization is the
// expensive part; the tests in this file never run in parallel).
func deviceFor(t *testing.T, name string) (*sim.Runner, *sim.Characterization) {
	t.Helper()
	desc, err := platform.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	runner := sim.NewRunnerFor(desc)
	models, ok := characterizations[name]
	if !ok {
		models, err = runner.Characterize(context.Background(), 1)
		if err != nil {
			t.Fatalf("characterize %s: %v", name, err)
		}
		characterizations[name] = models
	}
	return runner, models
}

// equivOptions builds device d's options for one (platform, scenario,
// policy) combo, mirroring the fleet's per-cell perturbation scheme: every
// device gets its own run seed, jitter seed, and ambient shift (device 1
// keeps shift 0, covering the unperturbed path). The returned slice
// collects the samples the observer sees.
func equivOptions(t *testing.T, runner *sim.Runner, models *sim.Characterization, scName string, pol sim.Policy, d int) (sim.Options, *[]sim.Sample) {
	t.Helper()
	sc, err := scenario.ByName(scName)
	if err != nil {
		t.Fatal(err)
	}
	script, err := scenario.Compile(sc.Perturbed(int64(500+7*d), 1.5*float64(d)-1.5, runner.Desc.Thermal.Ambient))
	if err != nil {
		t.Fatal(err)
	}
	samples := &[]sim.Sample{}
	return sim.Options{
		Policy:        pol,
		Script:        script,
		Seed:          int64(101 + 13*d),
		ControlPeriod: equivPeriod,
		MaxDuration:   equivDuration,
		Model:         models.Thermal,
		PowerModel:    models.Power,
		Observer:      func(s sim.Sample) { *samples = append(*samples, s) },
	}, samples
}

func sampleBits(s sim.Sample) [11]uint64 {
	return [11]uint64{
		uint64(s.Step),
		math.Float64bits(s.Time),
		math.Float64bits(s.MaxTemp),
		math.Float64bits(s.FreqGHz),
		math.Float64bits(s.Power),
		math.Float64bits(s.FanSpeed),
		math.Float64bits(s.Cores),
		math.Float64bits(s.Cluster),
		math.Float64bits(s.GPUMHz),
		math.Float64bits(s.BoardTemp),
		math.Float64bits(s.BigPower),
	}
}

// resultBits flattens the consumed Result fields (everything except the
// Pred* accounting and the recorder) to comparable bit patterns.
func resultBits(r *sim.Result) [13]uint64 {
	completed := uint64(0)
	if r.Completed {
		completed = 1
	}
	return [13]uint64{
		completed,
		math.Float64bits(r.ExecTime),
		math.Float64bits(r.AvgPower),
		math.Float64bits(r.Energy),
		math.Float64bits(r.MaxTemp),
		math.Float64bits(r.AvgTemp),
		math.Float64bits(r.TempVar),
		math.Float64bits(r.Spread),
		math.Float64bits(r.OverTMax),
		math.Float64bits(r.SSAvgTemp),
		math.Float64bits(r.SSTempVar),
		math.Float64bits(r.SSSpread),
		uint64(r.Policy),
	}
}

// outcome is one run's comparable fingerprint.
type outcome struct {
	res     [13]uint64
	samples [][11]uint64
}

func runOutcome(t *testing.T, runner *sim.Runner, opt sim.Options, samples *[]sim.Sample) (outcome, *sim.Result) {
	t.Helper()
	res, err := runner.Run(context.Background(), opt)
	if err != nil {
		t.Errorf("run: %v", err)
		return outcome{}, nil
	}
	o := outcome{res: resultBits(res)}
	for _, s := range *samples {
		o.samples = append(o.samples, sampleBits(s))
	}
	return o, res
}

func (o outcome) diff(t *testing.T, what string, want outcome) {
	t.Helper()
	if o.res != want.res {
		t.Errorf("%s: result diverges:\ngot  %v\nwant %v", what, o.res, want.res)
	}
	if len(o.samples) != len(want.samples) {
		t.Fatalf("%s: %d samples vs %d", what, len(o.samples), len(want.samples))
	}
	for k := range o.samples {
		if o.samples[k] != want.samples[k] {
			t.Fatalf("%s: step %d sample diverges:\ngot  %v\nwant %v", what, k, o.samples[k], want.samples[k])
		}
	}
}

// TestBatchEquivalenceMatrix sweeps every registered platform x library
// scenario x policy with three perturbed devices each: the fleet's batch
// path (no prediction accounting, no recording) must reproduce the
// recorded, fully accounted standalone run bit for bit, and leave exactly
// the Pred* fields and the "predmax_c" series out.
func TestBatchEquivalenceMatrix(t *testing.T) {
	for _, platName := range platform.Names() {
		for _, scName := range scenario.Names() {
			for _, pol := range sim.Policies() {
				t.Run(platName+"/"+scName+"/"+pol.String(), func(t *testing.T) {
					runner, models := deviceFor(t, platName)
					for d := 0; d < 3; d++ {
						opt, samples := equivOptions(t, runner, models, scName, pol, d)
						opt.PredHorizon = -1
						batch, res := runOutcome(t, runner, opt, samples)
						if res != nil && (res.PredMeanPct != 0 || res.PredMaxPct != 0 || res.PredMaxAbsC != 0) {
							t.Errorf("device %d: batch path computed prediction accuracy %+v", d, *res)
						}

						opt, samples = equivOptions(t, runner, models, scName, pol, d)
						opt.Record = true
						full, res := runOutcome(t, runner, opt, samples)
						if res != nil && res.Rec.Series("predmax_c") == nil {
							t.Errorf("device %d: recorded run has no predmax_c series", d)
						}
						batch.diff(t, "device "+strconv.Itoa(d), full)
					}
				})
			}
		}
	}
}

// TestBatchEquivalenceWidths runs B devices — spread over every platform,
// so pooled arenas are handed between different core and node counts —
// sequentially, then all B concurrently, then sequentially in reverse.
// Each device must reproduce its sequential outcome bit for bit whatever
// arena it drew. The nightly CI job raises B via BATCH_EQUIV_N.
func TestBatchEquivalenceWidths(t *testing.T) {
	widths := []int{1, 3, 8, 17}
	if s := os.Getenv("BATCH_EQUIV_N"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("BATCH_EQUIV_N=%q: want a positive integer", s)
		}
		widths = append(widths, n)
	}
	names := platform.Names()
	for _, b := range widths {
		t.Run("B="+strconv.Itoa(b), func(t *testing.T) {
			run := func(d int) outcome {
				runner, models := deviceFor(t, names[d%len(names)])
				opt, samples := equivOptions(t, runner, models, "gaming-session", sim.PolicyDTPM, d)
				o, _ := runOutcome(t, runner, opt, samples)
				return o
			}
			want := make([]outcome, b)
			for d := range want {
				want[d] = run(d)
			}
			got := make([]outcome, b)
			var wg sync.WaitGroup
			for d := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[d] = run(d)
				}()
			}
			wg.Wait()
			for d := range got {
				got[d].diff(t, "concurrent device "+strconv.Itoa(d), want[d])
			}
			for d := b - 1; d >= 0; d-- {
				run(d).diff(t, "reverse device "+strconv.Itoa(d), want[d])
			}
		})
	}
}
