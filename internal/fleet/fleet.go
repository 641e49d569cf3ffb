package fleet

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/store"
)

// Progress is one live per-device event: emitted serially (never
// concurrently) as each cell of a running fleet finishes, in completion
// order. Metrics is nil for a failed cell.
type Progress struct {
	// Done / Total count completed cells and the population size.
	Done, Total int
	// Cell is the device that finished.
	Cell CellConfig
	// Metrics is the device's fixed-size outcome (nil on failure).
	Metrics *CellMetrics
	// Err is the collected failure ("" on success).
	Err string
	// Cached reports that the cell was served from the result store
	// instead of being simulated. Cached cells are byte-identical to
	// computed ones, so this is telemetry only — it never appears in the
	// report.
	Cached bool
}

// Engine runs device populations over a sched worker pool.
type Engine struct {
	// Workers is the pool size; <= 0 means GOMAXPROCS.
	Workers int
	// Runner is the anchor device (nil = sim.NewRunner()): cells whose
	// platform matches it run on it directly, every other platform is
	// characterized once per engine and cached.
	Runner *sim.Runner
	// Models is the anchor device's characterization; nil means Run
	// characterizes it on first need (at BaseSeed).
	Models *sim.Characterization
	// BaseSeed anchors the whole population draw and every derived
	// simulation seed.
	BaseSeed int64
	// OnCellDone, when set, receives a Progress event after each cell,
	// serially.
	OnCellDone func(Progress)
	// Store, when set, makes cell execution lookup-or-compute: each
	// cell's normalized configuration is hashed to a content address,
	// computed results are persisted under it, and later runs of an
	// identical cell are served from the store instead of simulated.
	// Determinism is byte-exact, so a warm run's report is byte-identical
	// to a cold one — the store changes wall-clock time, never results.
	Store *store.Store

	// modelsTag is the characterization provenance mixed into every
	// anchor-platform cell key (lazily computed; see anchorTag).
	// modelsInjected is pinned at the first init, before lazy
	// self-characterization can set Models.
	modelsTag        string
	modelsInjected   bool
	provenancePinned bool
	// charMu serializes the anchor-device setup: the Runner default, the
	// lazy anchor characterization, and the provenance fields above.
	charMu sync.Mutex

	// devices caches one runner and one characterization (at BaseSeed) per
	// non-anchor platform, built on first use and shared by all of its
	// cells, so a platform appearing in thousands of cells is
	// characterized exactly once.
	devices sched.Cache

	// lastMaxPending records the previous Run's high-water mark of the
	// collector's reorder window — the observability hook the
	// bounded-memory test asserts on. Written once after the pool drains.
	lastMaxPending int
}

// windowPerWorker sizes the collector's reorder window (and the store
// writer's queue) per worker: enough completed cells may wait on a slow
// frontier cell that cells of very different scenario lengths keep every
// worker busy, while the window stays O(workers), independent of N.
const windowPerWorker = 32

// cellOutcome is what one cell leaves behind for assembly.
type cellOutcome struct {
	cfg     CellConfig
	agg     *cellAgg
	metrics *CellMetrics
	err     string
	cached  bool
}

// init defaults the anchor device and pins the characterization
// provenance tag — once per engine, so repeated Run calls (and RunCell
// probes) reuse both. The anchor device's own characterization is
// deliberately NOT done here: it is lazy (see deviceFor), so a fully warm
// store-served run never pays for it.
func (e *Engine) init() {
	e.charMu.Lock()
	defer e.charMu.Unlock()
	if e.Runner == nil {
		e.Runner = sim.NewRunner()
	}
	if !e.provenancePinned {
		// Pin the provenance now, before any lazy self-characterization can
		// set e.Models: the tag itself (a digest of injected models, which
		// costs a full marshal) is computed lazily in anchorTag, only when
		// the store actually addresses a cell.
		e.modelsInjected = e.Models != nil
		e.provenancePinned = true
	}
}

// anchorTag names the anchor platform's characterization provenance,
// computed once on first use: a content digest for injected models,
// otherwise the characterization seed — self-characterization is a pure
// function of (platform, BaseSeed), so the key of a warm cell is
// computable models-free.
func (e *Engine) anchorTag() string {
	e.charMu.Lock()
	defer e.charMu.Unlock()
	if e.modelsTag == "" {
		if e.modelsInjected {
			e.modelsTag = modelsDigestTag(e.Models)
		} else {
			e.modelsTag = fmt.Sprintf("charseed:%d", e.BaseSeed)
		}
	}
	return e.modelsTag
}

// deviceFor resolves a cell's runner and models: a non-anchor platform
// through the per-platform cache, the anchor device with its
// characterization deferred to first need. A cell that the store serves
// never reaches this point, so a fully warm run skips characterization
// entirely.
func (e *Engine) deviceFor(ctx context.Context, name string) (*sim.Runner, *sim.Characterization, error) {
	if name != "" && name != e.Runner.Descriptor().Name {
		return e.devices.Device(ctx, name, e.BaseSeed)
	}
	models, err := e.anchorModels(ctx)
	return e.Runner, models, err
}

// anchorModels characterizes the anchor device once, lazily. A failed
// characterization (e.g. a cancelled context) caches nothing, so a later
// call with a live context retries instead of inheriting the failure.
func (e *Engine) anchorModels(ctx context.Context) (*sim.Characterization, error) {
	e.charMu.Lock()
	defer e.charMu.Unlock()
	if e.Models == nil {
		models, err := e.Runner.Characterize(ctx, e.BaseSeed)
		if err != nil {
			return nil, err
		}
		e.Models = models
	}
	return e.Models, nil
}

// Run simulates the whole population and returns the aggregate report.
// Individual cell failures are collected in the report, never aborting the
// fleet. On cancellation the partial report — aggregated over the cells
// that completed, the rest collected as cancelled — comes back with an
// error wrapping sim.ErrCancelled.
func (e *Engine) Run(ctx context.Context, spec Spec) (*Report, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	spec = spec.normalized()
	e.init()
	pol, err := sim.ParsePolicy(spec.Policy)
	if err != nil {
		return nil, err
	}
	coll := newCollector(spec.N)
	var (
		mu   sync.Mutex
		done int
	)
	pool := sched.Pool{Workers: e.Workers}
	window := windowPerWorker * pool.Size(spec.N)
	// Store writes leave the hot path: a bounded queue feeds one writer
	// goroutine, and workers block only when the store falls that far
	// behind.
	var writer *storeWriter
	put := func(store.Digest, []byte) {}
	if e.Store != nil {
		writer = startWriter(e.Store, window)
		put = writer.enqueue
	}
	// Cells are handed out one at a time in index order. Backpressure: a
	// worker may not take a new cell while the collector's pending window
	// is full. Without this the reorder window is bounded only by goroutine
	// scheduling fairness — a preempted worker holding the frontier cell
	// lets its peers complete a full scheduler slice of cells each — which
	// on a loaded box scales with throughput, not with the pool. The gate
	// cannot deadlock: every pending cell lies above the merge frontier,
	// so the frontier cell has been handed out and is in flight with a
	// worker that finishes and merges it without ever gating.
	coll.window = window
	next := 0
	sched.Drain(pool, func() (int, bool) {
		coll.gate()
		if next >= spec.N {
			return 0, false
		}
		next++
		return next - 1, true
	}, func(i int) {
		out := e.storedCell(ctx, spec, pol, DeriveCell(spec, e.BaseSeed, i), put)
		coll.add(i, out)
		if e.OnCellDone != nil {
			mu.Lock()
			done++
			e.OnCellDone(Progress{Done: done, Total: spec.N, Cell: out.cfg, Metrics: out.metrics, Err: out.err, Cached: out.cached})
			mu.Unlock()
		}
	})
	writer.close() // drain every queued store write, cancelled or not
	e.lastMaxPending = coll.maxPending
	rep := coll.report(spec, e.BaseSeed)
	if cause := context.Cause(ctx); cause != nil {
		return rep, fmt.Errorf("fleet: %w (%w)", sim.ErrCancelled, cause)
	}
	return rep, nil
}

// runCell executes one device cell; every failure mode becomes a collected
// outcome. With record set the full trace is retained (the replay path);
// the fleet path keeps only the aggregate.
func (e *Engine) runCell(ctx context.Context, spec Spec, pol sim.Policy, cfg CellConfig, record bool) cellOutcome {
	out := cellOutcome{cfg: cfg}
	if ctx.Err() != nil {
		out.err = "fleet: cancelled before start"
		return out
	}
	runner, models, err := e.deviceFor(ctx, cfg.Platform)
	if err != nil {
		out.err = err.Error()
		return out
	}
	opt, agg, err := cellOptions(spec, pol, cfg, runner, models, record)
	if err != nil {
		out.err = err.Error()
		return out
	}
	res, err := sched.RunSafely(ctx, runner, opt)
	if err != nil {
		out.err = err.Error()
		return out
	}
	agg.finish(res)
	out.agg = agg
	out.metrics = agg.metrics()
	return out
}

// cellOptions compiles one device cell into executable run options plus its
// fresh aggregator: the cell's scenario perturbed onto its seeds and
// ambient shift, under the fleet's policy/constraint/period, observed by
// the per-sample fold.
func cellOptions(spec Spec, pol sim.Policy, cfg CellConfig, runner *sim.Runner, models *sim.Characterization, record bool) (sim.Options, *cellAgg, error) {
	desc := runner.Descriptor()
	sc, err := scenario.ByName(cfg.Scenario)
	if err != nil {
		return sim.Options{}, nil, err
	}
	script, err := scenario.Compile(sc.Perturbed(cfg.ScenarioSeed, cfg.AmbientShiftC, desc.Thermal.Ambient))
	if err != nil {
		return sim.Options{}, nil, err
	}
	opt := sim.Options{
		Policy:        pol,
		Script:        script,
		Seed:          cfg.Seed,
		TMax:          spec.TMaxC,
		ControlPeriod: spec.ControlPeriodS,
		Record:        record,
	}
	// The aggregate path consumes no prediction-accuracy metric; only a
	// recorded replay keeps the accounting (and its "predmax_c" trace).
	if !record {
		opt.PredHorizon = -1
	}
	if models != nil {
		opt.Model = models.Thermal
		opt.PowerModel = models.Power
	}
	agg := newCellAgg(desc, spec.TMaxC)
	opt.Observer = agg.observe
	return opt, agg, nil
}

// RunCell simulates exactly one device of the population standalone — the
// cheap spot-check — and returns its fixed-size metrics. The cell runs the
// very configuration (and RNG streams) it would run inside the full fleet,
// so its metrics match the fleet's sample for sample.
func (e *Engine) RunCell(ctx context.Context, spec Spec, index int) (*CellMetrics, CellConfig, error) {
	out, err := e.cell(ctx, spec, index, false)
	if err != nil {
		return nil, out.cfg, err
	}
	return out.metrics, out.cfg, nil
}

// ReplayCell re-runs device `index` standalone with full trace recording:
// the returned result's recorder holds the complete per-interval series of
// the device, bit-identical to what the fleet's aggregator observed (both
// are fed from the same Sample values).
func (e *Engine) ReplayCell(ctx context.Context, spec Spec, index int) (*sim.Result, CellConfig, error) {
	out, err := e.cell(ctx, spec, index, true)
	if err != nil {
		return nil, out.cfg, err
	}
	return out.agg.res, out.cfg, nil
}

// cell is the shared single-cell path under RunCell and ReplayCell.
func (e *Engine) cell(ctx context.Context, spec Spec, index int, record bool) (cellOutcome, error) {
	if err := spec.Validate(); err != nil {
		return cellOutcome{}, err
	}
	spec = spec.normalized()
	if index < 0 || index >= spec.N {
		return cellOutcome{}, fmt.Errorf("fleet: cell index %d out of range [0, %d)", index, spec.N)
	}
	e.init()
	pol, err := sim.ParsePolicy(spec.Policy)
	if err != nil {
		return cellOutcome{}, err
	}
	cfg := DeriveCell(spec, e.BaseSeed, index)
	var out cellOutcome
	if record {
		if e.Store != nil {
			if hit, ok := e.lookupTrace(spec, cfg); ok {
				return hit, nil
			}
		}
		out = e.runCell(ctx, spec, pol, cfg, true)
		if e.Store != nil {
			e.putTrace(spec, out)
		}
	} else {
		out = e.storedCell(ctx, spec, pol, cfg, func(key store.Digest, payload []byte) {
			_ = e.Store.Put(key, payload) // non-fatal: the next probe recomputes
		})
	}
	if out.err != "" {
		return out, fmt.Errorf("fleet: cell %d: %s", index, out.err)
	}
	return out, nil
}

// collector assembles the aggregate report incrementally while cells are
// still running. Completed outcomes are parked in a pending window under a
// lock and merged the moment every lower-indexed cell has been merged too
// — so the merge happens strictly in cell-index order (the
// byte-determinism contract) while each cell's aggregator (its histogram
// backing) is recycled as soon as it is folded in. Nothing else reads an
// aggregator after it reaches the collector: a store-backed cell was
// encoded by its worker before it was added. The pending window is
// hard-bounded by the gate: workers wait for window room before taking a
// new cell, so pending stays O(workers), never O(N) — that, not a cells-length slice, is what lets a million-device
// fleet run in memory independent of N. Only the per-group scalar tails
// (one energy / perf-loss / throttle value per completed cell, for the
// exact percentiles the report promises) and the failure list still grow
// with the population.
type collector struct {
	mu        sync.Mutex
	cond      *sync.Cond // signalled whenever the merge frontier advances
	n         int
	pending   map[int]cellOutcome // completed but not yet merged
	next      int                 // first index not yet merged
	completed int
	failures  []CellFailure // collected at merge time, so index order
	overall   *groupAgg
	groups    map[[2]string]*groupAgg
	keys      [][2]string

	// window caps the pending map: gate blocks cell hand-out while the
	// window is full (0 = ungated).
	window int
	// maxPending is the high-water mark of the pending window — the
	// bounded-memory test asserts it stays under the gate's window plus
	// one in-flight cell per worker at any population size.
	maxPending int
}

func newCollector(n int) *collector {
	c := &collector{
		n:       n,
		pending: map[int]cellOutcome{},
		overall: newGroupAgg("all", "all"),
		groups:  map[[2]string]*groupAgg{},
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// gate blocks until the pending window has room for another cell.
// Callers hold no cell when they gate, so the worker running the frontier
// cell always proceeds to add — which advances the frontier and wakes the
// gate. See Run for the no-deadlock argument.
func (c *collector) gate() {
	if c.window <= 0 {
		return
	}
	c.mu.Lock()
	for len(c.pending) >= c.window {
		c.cond.Wait()
	}
	c.mu.Unlock()
}

// add records cell i's outcome and advances the in-order merge frontier.
func (c *collector) add(i int, out cellOutcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pending[i] = out
	if len(c.pending) > c.maxPending {
		c.maxPending = len(c.pending)
	}
	for {
		o, ok := c.pending[c.next]
		if !ok {
			break
		}
		delete(c.pending, c.next)
		if o.err != "" {
			c.failures = append(c.failures, CellFailure{Cell: o.cfg, Err: o.err})
		} else {
			key := [2]string{o.cfg.Platform, o.cfg.Scenario}
			g, ok := c.groups[key]
			if !ok {
				g = newGroupAgg(key[0], key[1])
				c.groups[key] = g
				c.keys = append(c.keys, key)
			}
			g.merge(o.agg, o.metrics)
			c.overall.merge(o.agg, o.metrics)
			c.completed++
		}
		releaseCellAgg(o.agg)
		c.next++
	}
	c.cond.Broadcast()
}

// report finalizes the deterministic aggregate report. Every cell has been
// added by the time the pool drains, so the merge frontier has passed the
// whole population.
func (c *collector) report(spec Spec, baseSeed int64) *Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	rep := &Report{
		Name:      spec.Name,
		BaseSeed:  baseSeed,
		Policy:    spec.Policy,
		TMaxC:     spec.TMaxC,
		Cells:     c.n,
		Completed: c.completed,
		Failures:  c.failures,
	}
	sort.Slice(c.keys, func(i, j int) bool {
		if c.keys[i][0] != c.keys[j][0] {
			return c.keys[i][0] < c.keys[j][0]
		}
		return c.keys[i][1] < c.keys[j][1]
	})
	for _, k := range c.keys {
		rep.Groups = append(rep.Groups, c.groups[k].report())
	}
	rep.Overall = c.overall.report()
	return rep
}
