package main

import (
	"context"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/campaign"
	"repro/internal/fleet"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workload"
)

// controlPeriodS is the simulated length of one control interval in every
// workload spec (the paper's 100 ms).
const controlPeriodS = 0.1

// passes is what a sequence of timed passes measured.
type passes struct {
	wallsMS []float64 // every pass, in order
	rates   []float64 // cells per wall second, every pass
	cells   int
	wall    time.Duration
	cpu     time.Duration

	// Traced passes only (trace mode alternates untraced and traced
	// passes; the rate difference is the tracing overhead).
	plainRates, tracedRates []float64
	tracedCells             int
	tracedWall, tracedCPU   time.Duration
	tracedAllocMiB          float64
}

// timePasses runs pass at least min times and then until the deadline,
// measuring each from outside. In trace mode every second pass (counting
// from offset) is traced: it records spans and runs under the CPU
// profiler.
func timePasses(e *env, prof *profiler, min int, until time.Time, offset int, pass func(traced bool) (int, error)) (*passes, error) {
	p := &passes{}
	for i := 0; i < min || time.Now().Before(until); i++ {
		traced := e.trace && (i+offset)%2 == 1
		e.probe.maybe()
		if traced {
			prof.start()
		}
		a0, c0, t0 := totalAllocMiB(), cpuTime(), time.Now()
		n, err := pass(traced)
		wall, cpu := time.Since(t0), cpuTime()-c0
		alloc := totalAllocMiB() - a0
		if traced {
			prof.stop()
		}
		if err != nil {
			return nil, err
		}
		rate := float64(n) / wall.Seconds()
		p.wallsMS = append(p.wallsMS, ms(wall))
		p.rates = append(p.rates, rate)
		p.cells += n
		p.wall += wall
		p.cpu += cpu
		if traced {
			p.tracedRates = append(p.tracedRates, rate)
			p.tracedCells += n
			p.tracedWall += wall
			p.tracedCPU += cpu
			p.tracedAllocMiB += alloc
		} else {
			p.plainRates = append(p.plainRates, rate)
		}
	}
	return p, nil
}

// merge folds q's passes into p (fleet-store's cold and warm phases).
func (p *passes) merge(q *passes) *passes {
	return &passes{
		wallsMS:        append(append([]float64(nil), p.wallsMS...), q.wallsMS...),
		rates:          append(append([]float64(nil), p.rates...), q.rates...),
		cells:          p.cells + q.cells,
		wall:           p.wall + q.wall,
		cpu:            p.cpu + q.cpu,
		plainRates:     append(append([]float64(nil), p.plainRates...), q.plainRates...),
		tracedRates:    append(append([]float64(nil), p.tracedRates...), q.tracedRates...),
		tracedCells:    p.tracedCells + q.tracedCells,
		tracedWall:     p.tracedWall + q.tracedWall,
		tracedCPU:      p.tracedCPU + q.tracedCPU,
		tracedAllocMiB: p.tracedAllocMiB + q.tracedAllocMiB,
	}
}

// newLayers returns every per-layer metric at 0: a layer the workload does
// not call did no work.
func newLayers() map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		out[d.name] = 0
	}
	return out
}

// passLayers fills the per-layer metrics every in-process workload shares.
func passLayers(out map[string]float64, p *passes, prof *profiler, intervals uint64) error {
	if prof.err != nil {
		return fmt.Errorf("cpu profile: %w", prof.err)
	}
	prof.layers(out)
	out["sim.intervals"] = float64(intervals)
	if intervals > 0 {
		out["sim.host_us_per_interval"] = float64(p.tracedCPU.Microseconds()) / float64(intervals)
		out["sim.sim_s_per_host_s"] = float64(intervals) * controlPeriodS / p.tracedWall.Seconds()
	}
	if p.tracedCells > 0 {
		out["alloc_mb_per_cell"] = p.tracedAllocMiB / float64(p.tracedCells)
	}
	if plain := median(p.plainRates); plain > 0 {
		out["trace.overhead_pct"] = (plain - median(p.tracedRates)) / plain * 100
	}
	return nil
}

// workloadFleetSpec is the population of fleet-compute and fleet-store:
// all three platforms, the whole scenario library in equal shares, DTPM
// with ambient jitter. Only the base seed varies with --seed, so every
// seed draws a population of the same shape.
func workloadFleetSpec(e *env) fleet.Spec {
	n := 1000
	if e.tiny {
		n = 48
	}
	return fleet.Spec{
		Name:           "perfbench-fleet",
		N:              n,
		Policy:         "dtpm",
		ControlPeriodS: controlPeriodS,
		Platforms: []fleet.Weight{
			{Name: platforms[0], Weight: 2},
			{Name: platforms[1], Weight: 1},
			{Name: platforms[2], Weight: 1},
		},
		AmbientJitterC: 8,
	}
}

// setupFleet pays the one-off cost a fleet process pays before its first
// result: characterizing every platform of the mix. It runs one RunCell
// per platform on a fresh engine, setupReps times, and keeps the last
// engine. It returns the median total and the median per platform.
func setupFleet(ctx context.Context, e *env, tr *tracer, spec fleet.Spec, base int64) (*fleet.Engine, float64, map[string]float64, error) {
	first := map[string]int{}
	for i := 0; i < spec.N && len(first) < len(platforms); i++ {
		cfg := fleet.DeriveCell(spec, base, i)
		if _, ok := first[cfg.Platform]; !ok {
			first[cfg.Platform] = i
		}
	}
	var (
		eng    *fleet.Engine
		totals []float64
		per    = map[string][]float64{}
	)
	for r := 0; r < e.setupReps(); r++ {
		e.probe.run()
		eng = &fleet.Engine{Workers: e.workers, BaseSeed: base}
		t0 := time.Now()
		for _, p := range platforms {
			i, ok := first[p]
			if !ok {
				continue
			}
			s := time.Now()
			id := tr.open("setup.characterize", p, 0)
			if _, _, err := eng.RunCell(ctx, spec, i); err != nil {
				return nil, 0, nil, fmt.Errorf("setup %s: %w", p, err)
			}
			tr.close(id)
			per[p] = append(per[p], time.Since(s).Seconds())
		}
		totals = append(totals, time.Since(t0).Seconds())
	}
	e.probe.endSetup()
	med := map[string]float64{}
	for p, xs := range per {
		med[p] = median(xs)
	}
	return eng, median(totals), med, nil
}

// fleetPasser runs fleet passes: Run plus the JSON/CSV render a CLI user
// waits for, each checked byte-for-byte against the first pass. It counts
// failed cells, and for traced passes the simulated intervals, computed
// and cached cells, and render times.
type fleetPasser struct {
	tr       *tracer
	eng      *fleet.Engine
	spec     fleet.Spec
	want     *export
	last     *fleet.Report
	failed   int
	computed int
	cached   int
	samples  uint64
	renderMS []float64
}

func (f *fleetPasser) pass(ctx context.Context, what string) func(bool) (int, error) {
	return func(traced bool) (int, error) {
		t := f.tr
		if !traced {
			t = nil
		}
		ps := t.open("fleet.run", what, 0)
		f.eng.OnCellDone = nil
		if traced {
			f.eng.OnCellDone = func(p fleet.Progress) {
				if p.Metrics != nil && !p.Cached {
					f.samples += p.Metrics.Samples
				}
				if p.Cached {
					f.cached++
				} else {
					f.computed++
				}
				t.mark("fleet.cell", strconv.Itoa(p.Cell.Index), ps)
			}
		}
		rep, err := f.eng.Run(ctx, f.spec)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", what, err)
		}
		rs, r0 := t.open("fleet.render", what, ps), time.Now()
		ex, err := render(rep)
		t.close(rs)
		t.close(ps)
		if err != nil {
			return 0, err
		}
		if traced {
			f.renderMS = append(f.renderMS, ms(time.Since(r0)))
		}
		f.failed += len(rep.Failures)
		if f.want == nil {
			f.want = &ex
		} else if err := sameExport(what, ex, *f.want); err != nil {
			return 0, err
		}
		f.last = rep
		return f.spec.N, nil
	}
}

func failRatio(o *outcome) float64 {
	if o.attempted == 0 {
		return 0
	}
	return float64(o.failed) / float64(o.attempted)
}

// passOutcome is the outcome of a workload whose timed phase is identical
// passes with no result store (fleet-compute, campaign-grid): every pass
// computes every cell, so a re-run costs what a first run costs and
// warm_run_ms equals fresh_run_ms.
func passOutcome(e *env, p *passes, failed int, setup float64) (*outcome, error) {
	rss, err := procStatusMiB(0, "VmHWM")
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(e.stdout, "pass wall_ms %.0f\n", p.wallsMS)
	o := &outcome{attempted: p.cells, failed: failed, layer: newLayers()}
	run := median(p.wallsMS)
	o.e2e = map[string]float64{
		"setup_s":         setup,
		"cells_per_s":     median(p.rates),
		"cpu_ms_per_cell": ms(p.cpu) / float64(p.cells),
		"peak_rss_mb":     rss,
		"fresh_run_ms":    run,
		"warm_run_ms":     run,
	}
	for _, k := range []string{"setup_s", "cells_per_s", "cpu_ms_per_cell", "peak_rss_mb"} {
		o.print(k, o.e2e[k], unitOf(k))
	}
	o.print("op_fail_ratio", failRatio(o), "ratio")
	o.print("passes", float64(len(p.wallsMS)), "count")
	return o, nil
}

// runFleetCompute: an in-process fleet over all platforms and the whole
// scenario library with no store. The batched kernel does nearly all of
// the work; the store and the daemon are never called.
func runFleetCompute(ctx context.Context, e *env) (*outcome, error) {
	if err := checkGolden(ctx, e); err != nil {
		return nil, err
	}
	tr, prof := newTracer(e.trace), newProfiler()
	spec := workloadFleetSpec(e)
	eng, setup, charS, err := setupFleet(ctx, e, tr, spec, deriveSeed(e.seed, 1))
	if err != nil {
		return nil, err
	}
	f := &fleetPasser{tr: tr, eng: eng, spec: spec}
	p, err := timePasses(e, prof, 2, e.deadline(), 0, f.pass(ctx, "fleet-compute pass"))
	if err != nil {
		return nil, err
	}
	o, err := passOutcome(e, p, f.failed, setup)
	if err != nil {
		return nil, err
	}
	// Simulated metrics: they repeat exactly for a fixed seed, and a change
	// that only makes the simulator faster must leave them identical.
	o.print("sim_perf_loss_pct", f.last.Overall.PerfLossMean*100, "%")
	o.print("sim_energy_j", f.last.Overall.EnergyMeanJ, "J")
	if e.trace {
		if err := passLayers(o.layer, p, prof, f.samples); err != nil {
			return nil, err
		}
		o.layer["fleet.cells_computed"] = float64(f.computed)
		o.layer["fleet.render_ms"] = median(f.renderMS)
		for pl, s := range charS {
			o.layer["setup.characterize_s."+pl] = s
		}
		if err := writeSpans(e, tr, "fleet-compute"); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// runFleetStore: the fleet-compute population through a store that starts
// empty. Each cold pass simulates and writes every cell into a fresh
// store; the warm passes then only read, verify, decode, merge and render.
func runFleetStore(ctx context.Context, e *env) (*outcome, error) {
	if err := checkGolden(ctx, e); err != nil {
		return nil, err
	}
	dir, err := runDir(e, "fleet-store")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	tr, prof := newTracer(e.trace), newProfiler()
	spec := workloadFleetSpec(e)
	eng, setup, charS, err := setupFleet(ctx, e, tr, spec, deriveSeed(e.seed, 1))
	if err != nil {
		return nil, err
	}
	start, until := time.Now(), e.deadline()
	coldUntil := start.Add(until.Sub(start) / 2)
	f := &fleetPasser{tr: tr, eng: eng, spec: spec}
	var st *store.Store
	minCold := 3
	if e.tiny {
		minCold = 1
	}
	// Cold passes fill the first half of the timed phase, each into a new
	// empty store (the previous one is deleted); warm passes fill the rest
	// on the last store.
	cold := &passes{}
	for i := 0; i < minCold || time.Now().Before(coldUntil); i++ {
		if st != nil {
			if err := os.RemoveAll(st.Dir()); err != nil {
				return nil, err
			}
		}
		if st, err = store.Open(filepath.Join(dir, fmt.Sprintf("store-%d", i))); err != nil {
			return nil, err
		}
		eng.Store = st
		// One pass per empty store; trace mode traces every other store.
		p, err := timePasses(e, prof, 1, time.Time{}, i, f.pass(ctx, "fleet-store cold pass"))
		if err != nil {
			return nil, err
		}
		cold = cold.merge(p)
	}
	missesBefore := st.Stats().Misses
	warm, err := timePasses(e, prof, 3, until, 0, f.pass(ctx, "fleet-store warm pass"))
	if err != nil {
		return nil, err
	}
	stats := st.Stats()
	if stats.Misses != missesBefore {
		return nil, fmt.Errorf("%w: warm passes missed the store %d times", errIncorrect, stats.Misses-missesBefore)
	}
	all := cold.merge(warm)
	fmt.Fprintf(e.stdout, "cold pass wall_ms %.0f\nwarm pass wall_ms %.0f\n", cold.wallsMS, warm.wallsMS)
	o := &outcome{attempted: all.cells, failed: f.failed, e2e: map[string]float64{}, layer: newLayers()}
	rss, err := procStatusMiB(0, "VmHWM")
	if err != nil {
		return nil, err
	}
	o.e2e["setup_s"] = setup
	// How many cold passes fit the first half varies with their speed, so
	// no metric mixes cold and warm cells in one ratio: the rate is the
	// warm one, and the CPU is what one cell costs to simulate and write
	// once plus to serve once.
	o.e2e["cells_per_s"] = median(warm.rates)
	o.e2e["cpu_ms_per_cell"] = ms(cold.cpu)/float64(cold.cells) + ms(warm.cpu)/float64(warm.cells)
	o.e2e["peak_rss_mb"] = rss
	o.e2e["fresh_run_ms"] = median(cold.wallsMS)
	o.e2e["warm_run_ms"] = median(warm.wallsMS)
	o.print("store_cold_s", o.e2e["fresh_run_ms"]/1000, "s")
	o.print("store_warm_s", o.e2e["warm_run_ms"]/1000, "s")
	for _, k := range []string{"cpu_ms_per_cell", "setup_s", "peak_rss_mb"} {
		o.print(k, o.e2e[k], unitOf(k))
	}
	o.print("op_fail_ratio", failRatio(o), "ratio")
	o.print("warm_passes", float64(len(warm.wallsMS)), "count")
	if e.trace {
		if err := passLayers(o.layer, all, prof, f.samples); err != nil {
			return nil, err
		}
		// The overhead compares warm passes only: cold passes run one per
		// store, so there is no untraced twin to compare them with.
		o.layer["trace.overhead_pct"] = 0
		if plain := median(warm.plainRates); plain > 0 {
			o.layer["trace.overhead_pct"] = (plain - median(warm.tracedRates)) / plain * 100
		}
		o.layer["fleet.cells_computed"] = float64(f.computed)
		o.layer["fleet.cells_cached"] = float64(f.cached)
		o.layer["fleet.render_ms"] = median(f.renderMS)
		for pl, s := range charS {
			o.layer["setup.characterize_s."+pl] = s
		}
		storeLayers(o.layer, stats, st.Dir())
		if err := writeSpans(e, tr, "fleet-store"); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// storeLayers reports a store's counters and its size on disk.
func storeLayers(out map[string]float64, s store.Stats, dir string) {
	out["store.hits"] = float64(s.Hits)
	out["store.misses"] = float64(s.Misses)
	out["store.writes"] = float64(s.Writes)
	out["store.invalid"] = float64(s.Invalid)
	out["store.hit_ratio"] = s.HitRate()
	n, size := storeSize(dir)
	out["store.entries"] = float64(n)
	out["store.bytes"] = float64(size)
}

// storeSize counts the entry files under a store directory and their bytes.
func storeSize(dir string) (int, int64) {
	var (
		n    int
		size int64
	)
	filepath.WalkDir(filepath.Join(dir, "objects"), func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(d.Name()) != ".entry" {
			return nil
		}
		if info, err := d.Info(); err == nil {
			n++
			size += info.Size()
		}
		return nil
	})
	return n, size
}

// campaignGrid is campaign-grid's grid: all 16 Table 6.4 benchmarks under
// all four policies, on replicate seeds derived from --seed.
func campaignGrid(e *env) campaign.Grid {
	reps := 8
	if e.tiny {
		reps = 1
	}
	seeds := make([]int64, reps)
	for i := range seeds {
		seeds[i] = deriveSeed(e.seed, uint64(100+i))
	}
	return campaign.Grid{Policies: sim.Policies(), Benchmarks: workload.Names(), Seeds: seeds}
}

// runCampaignGrid: the campaign engine over the benchmark × policy ×
// replicate grid with no store. It is the workload on the scalar sim.Run
// kernel and on the non-DTPM paths (fan ladder, reactive heuristic,
// governors).
func runCampaignGrid(ctx context.Context, e *env) (*outcome, error) {
	if err := checkGolden(ctx, e); err != nil {
		return nil, err
	}
	tr, prof := newTracer(e.trace), newProfiler()
	base := deriveSeed(e.seed, 3)
	var (
		runner *sim.Runner
		models *sim.Characterization
		setups []float64
	)
	for r := 0; r < e.setupReps(); r++ {
		e.probe.run()
		t0 := time.Now()
		id := tr.open("setup.characterize", platforms[0], 0)
		runner = sim.NewRunner()
		var err error
		if models, err = runner.Characterize(ctx, base); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		tr.close(id)
		setups = append(setups, time.Since(t0).Seconds())
	}
	e.probe.endSetup()
	eng := &campaign.Engine{Workers: e.workers, Runner: runner, Models: models, BaseSeed: base}
	grid := campaignGrid(e)
	var (
		want      *export
		last      *campaign.Report
		failed    int
		intervals uint64
		renderMS  []float64
	)
	p, err := timePasses(e, prof, 2, e.deadline(), 0, func(traced bool) (int, error) {
		t := tr
		if !traced {
			t = nil
		}
		ps := t.open("campaign.run", "pass", 0)
		eng.OnCellDone = nil
		if traced {
			eng.OnCellDone = func(_, _ int, r campaign.CellResult) {
				t.mark("campaign.cell", strconv.Itoa(r.Cell.Index), ps)
			}
		}
		rep, err := eng.RunContext(ctx, grid)
		if err != nil {
			return 0, fmt.Errorf("campaign pass: %w", err)
		}
		rs, r0 := t.open("campaign.render", "pass", ps), time.Now()
		ex, err := render(rep)
		t.close(rs)
		t.close(ps)
		if err != nil {
			return 0, err
		}
		if traced {
			renderMS = append(renderMS, ms(time.Since(r0)))
			for _, c := range rep.Cells {
				if c.Metrics != nil {
					intervals += uint64(math.Round(c.Metrics.ExecTime / controlPeriodS))
				}
			}
		}
		failed += len(rep.Failures())
		if want == nil {
			want = &ex
		} else if err := sameExport("campaign-grid pass", ex, *want); err != nil {
			return 0, err
		}
		last = rep
		return len(rep.Cells), nil
	})
	if err != nil {
		return nil, err
	}
	o, err := passOutcome(e, p, failed, median(setups))
	if err != nil {
		return nil, err
	}
	var pred []float64
	for _, c := range last.Cells {
		if c.Metrics != nil && c.Cell.Policy == sim.PolicyDTPM {
			pred = append(pred, c.Metrics.PredMeanPct)
		}
	}
	o.print("sim_pred_err_pct", mean(pred), "%")
	if e.trace {
		if err := passLayers(o.layer, p, prof, intervals); err != nil {
			return nil, err
		}
		o.layer["campaign.render_ms"] = median(renderMS)
		o.layer["setup.characterize_s."+platforms[0]] = median(setups)
		if err := writeSpans(e, tr, "campaign-grid"); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// runDir makes this run's private directory (stores, daemon state).
func runDir(e *env, workload string) (string, error) {
	dir := filepath.Join(e.out, "runs", fmt.Sprintf("%s-seed%d-%d", workload, e.seed, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// writeSpans stores the traced run's spans and says where.
func writeSpans(e *env, tr *tracer, workload string) error {
	path, err := tr.write(filepath.Join(e.out, "traces"), fmt.Sprintf("%s-seed%d.json", workload, e.seed))
	if err != nil {
		return err
	}
	fmt.Fprintf(e.stdout, "spans %s (%d spans)\n", path, len(tr.spans))
	return nil
}

func unitOf(name string) string {
	for _, d := range endToEnd {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}
