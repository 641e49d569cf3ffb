// Package sim is the full-system experiment harness: it wires the platform,
// ground-truth power and thermal models, sensors, the simulated kernel with
// its default governors, and one of the four §6.2 management policies, then
// runs a benchmark to completion and reports the metrics of the evaluation:
// execution time, platform power, temperature statistics, and temperature-
// prediction accuracy.
package sim

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"repro/internal/dtpm"
	"repro/internal/governor"
	"repro/internal/kernel"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/sensor"
	"repro/internal/stats"
	"repro/internal/sysid"
	"repro/internal/thermal"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Policy selects the thermal-management configuration of §6.2.
type Policy int

// The four experimental configurations.
const (
	// PolicyFan is the default configuration WITH the fan (stock Odroid).
	PolicyFan Policy = iota
	// PolicyNoFan disables the fan and runs only the default governor.
	PolicyNoFan
	// PolicyReactive is the fan-mimicking reactive throttling heuristic.
	PolicyReactive
	// PolicyDTPM is the paper's predictive algorithm.
	PolicyDTPM
)

// Policies lists the four configurations in paper order.
func Policies() []Policy {
	return []Policy{PolicyFan, PolicyNoFan, PolicyReactive, PolicyDTPM}
}

// ParsePolicy is the inverse of Policy.String.
func ParsePolicy(name string) (Policy, error) {
	for _, p := range Policies() {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("sim: unknown policy %q (known: with-fan, without-fan, reactive, dtpm)", name)
}

// MarshalJSON encodes the policy as its stable name rather than the enum
// integer, so exported reports stay comparable across versions even if the
// const block is ever reordered.
func (p Policy) MarshalJSON() ([]byte, error) {
	return json.Marshal(p.String())
}

// UnmarshalJSON accepts the names MarshalJSON produces.
func (p *Policy) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	v, err := ParsePolicy(s)
	if err != nil {
		return err
	}
	*p = v
	return nil
}

func (p Policy) String() string {
	switch p {
	case PolicyFan:
		return "with-fan"
	case PolicyNoFan:
		return "without-fan"
	case PolicyReactive:
		return "reactive"
	case PolicyDTPM:
		return "dtpm"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Options configure one run.
type Options struct {
	Policy   Policy
	Bench    workload.Benchmark
	Governor string  // default cpufreq governor name ("" = ondemand)
	Seed     int64   // sensor-noise / background seed
	TMax     float64 // DTPM constraint (0 = paper default 63)
	// MaxDuration caps the run (s); 0 = 4x the benchmark's nominal time.
	MaxDuration float64
	// ControlPeriod is the kernel tick (s); 0 = the paper's 100 ms.
	ControlPeriod float64
	// Record enables full trace recording.
	Record bool
	// PredHorizon is the prediction-accuracy accounting horizon in control
	// intervals (0 = the paper's 10 intervals = 1 s; negative = no
	// accounting, which leaves the Pred* fields zero and records no
	// "predmax_c"). It does not change the DTPM controller's own horizon,
	// only the §6.3.1 accounting.
	PredHorizon int
	// Model is the identified thermal model (required for PolicyDTPM; also
	// used for prediction-accuracy accounting in any policy when set).
	Model *sysid.ThermalModel
	// PowerModel supplies fitted leakage parameters for DTPM (nil = fit
	// omitted: ground-truth parameters are copied, representing a perfect
	// §4.1 characterization).
	PowerModel *power.Model
	// DTPM overrides the controller configuration (nil = paper defaults
	// with Options.TMax applied). Used by the ablation studies.
	DTPM *dtpm.Config
	// Observer, when set, is invoked synchronously at the end of every
	// control interval with that interval's Sample — the streaming-session
	// hook. It runs on the simulation goroutine, so a slow observer slows
	// the run (which is what makes live observation lock-step with the
	// simulation). A nil observer costs nothing: the hot loop stays
	// allocation-free, which the BenchmarkSimCell gate enforces.
	Observer func(Sample)
	// Script, when set, drives a time-varying scenario instead of Bench:
	// the workload, governor, GPU demand, activity factors, and ambient
	// temperature are re-read from the script every control interval (one
	// Step call), and the run completes when the script's duration
	// elapses. Bench is ignored. With Record set, the script's inputs are recorded alongside
	// the outputs ("demand_w<i>", "gpu_demand", "ambient_c",
	// "cpu_activity", "gpu_activity", "mem_traffic", "mem_bound",
	// "gov_id"), which is what makes a trace replayable.
	Script Script
}

// Result is the outcome of one run.
type Result struct {
	Bench     string
	Policy    Policy
	Completed bool
	// ExecTime is the foreground completion time (s), or the elapsed time
	// when the run hit MaxDuration.
	ExecTime float64
	// AvgPower / Energy are platform-level (external meter): W and J.
	AvgPower float64
	Energy   float64
	// Temperature statistics over the max-core series (°C).
	MaxTemp  float64
	AvgTemp  float64
	TempVar  float64
	Spread   float64
	OverTMax float64 // seconds spent above TMax
	// Steady-state statistics exclude the cold-start ramp: the window opens
	// at the first sample within 3 °C of TMax, or at 30% of the run if the
	// trace never gets that hot. Figure 6.5's average-temperature and
	// max-min comparison is computed over the regulated portion of the
	// trace, so these are the fields the Fig. 6.5 experiment reports.
	SSAvgTemp float64
	SSTempVar float64
	SSSpread  float64
	// Prediction accuracy (when a model was provided and PredHorizon is not
	// negative): the §6.3.1 metrics.
	PredMeanPct float64
	PredMaxPct  float64
	PredMaxAbsC float64
	// Rec holds traces when Options.Record was set: series "maxtemp",
	// "freq_ghz", "power_w", "fan", "cores", "cluster", "gpu_mhz",
	// "board", "bigpower_w"; with prediction accounting also "predmax_c",
	// and under PolicyDTPM additionally "dtpm_violation", "dtpm_budget_w",
	// "dtpm_pred_c".
	Rec *trace.Recorder
}

// Runner holds the simulated device shared across runs.
//
// A Runner is safe for concurrent use: Run builds all mutable state (chip,
// thermal integrator, sensors, scheduler, controller) per call, the ground
// truth and parameter fields are read-only, and the models passed through
// Options are either read-only (Options.Model, whose lazy gains cache is
// internally locked) or cloned before use (Options.PowerModel). The
// campaign engine relies on this to fan cells out across a worker pool.
type Runner struct {
	// Desc is the platform under simulation (nil = the default Exynos
	// 5410; NewRunnerFor sets it). GT and Thermal must describe the same
	// platform.
	Desc    *platform.Descriptor
	GT      *power.GroundTruth
	Thermal thermal.Params
	Sensors sensor.Config

	idleOnce  sync.Once
	idleState thermal.State
}

// NewRunner returns the default device (the paper's Odroid-XU+E board).
func NewRunner() *Runner { return NewRunnerFor(platform.Default()) }

// NewRunnerFor returns a simulated device for any registered platform
// descriptor: the ground-truth power model, RC thermal network, fan, and
// every per-core buffer in the simulation stack size themselves from it.
func NewRunnerFor(d *platform.Descriptor) *Runner {
	return &Runner{
		Desc:    d,
		GT:      power.GroundTruthFor(d),
		Thermal: d.Thermal,
		Sensors: sensor.DefaultConfig(),
	}
}

// Descriptor resolves the platform descriptor the runner simulates (nil
// Desc field = the default platform, so a zero-initialized
// &Runner{GT: ..., Thermal: ...} keeps working).
func (r *Runner) Descriptor() *platform.Descriptor {
	if r.Desc != nil {
		return r.Desc
	}
	return platform.Default()
}

// bgTaskName returns the name of background task i without allocating for
// the common core counts.
func bgTaskName(i int) string {
	const names = "bg-0\x00bg-1\x00bg-2\x00bg-3\x00bg-4\x00bg-5\x00bg-6\x00bg-7"
	if i < 8 {
		return names[i*5 : i*5+4]
	}
	return fmt.Sprintf("bg-%d", i)
}

// idleCoreUtil returns the light background utilization pattern of an idle
// device: the paper platform's {5%, 3%, 3%, 2%} pattern, cycled across
// however many big cores the platform has.
func idleCoreUtil(cores int) []float64 {
	base := [4]float64{0.05, 0.03, 0.03, 0.02}
	out := make([]float64, cores)
	for i := range out {
		out[i] = base[i%4]
	}
	return out
}

// groundTruthPowerModel builds a power.Model from the ground-truth leakage
// parameters (a perfect §4.1 characterization).
func (r *Runner) groundTruthPowerModel() *power.Model {
	var leak [platform.NumResources]power.LeakageParams
	for i := range leak {
		leak[i] = r.GT.Res[i].Leak
	}
	return power.NewModel(leak)
}

// IdleState returns the warm-start state: the device idling (background
// load only) long enough for the board to settle, like a phone sitting
// before a benchmark is launched. The fixed point depends only on the
// runner's parameters, so it is computed once and cached across runs.
func (r *Runner) IdleState() thermal.State {
	r.idleOnce.Do(func() { r.idleState = r.computeIdleState() })
	return r.idleState
}

func (r *Runner) computeIdleState() thermal.State {
	chip := platform.NewChipFor(r.Descriptor())
	if err := chip.Active().SetFreq(chip.Active().Domain.MinFreq()); err != nil {
		panic(err)
	}
	sim := thermal.NewSim(r.Thermal)
	act := power.ChipActivity{CoreUtil: idleCoreUtil(chip.BigCluster.NumCores()), CPUActivity: 1, MemTraffic: 0.05}
	st := sim.State()
	core := make([]float64, chip.BigCluster.NumCores())
	for i := 0; i < 4; i++ {
		_, board := r.GT.StepInto(core, chip, act, st.Core, st.Board)
		st = sim.SteadyState(thermal.Input{CorePower: core, BoardPower: board})
		sim.SetState(st)
	}
	return st
}

// arena is the recyclable scratch of one Run: every allocation whose
// lifetime is exactly the run and whose reset-to-fresh state is provable.
// Campaigns and fleets run millions of cells with a handful in flight, so
// pooling these turns the per-run slab cost into a one-time cost per
// worker. Deliberately not pooled: the thermal integrator (scripted
// ambients write its Params copy), the chip, fan, reactive heuristic and
// DTPM controller (mutable model state with no reset contract), and the
// Result with its recorder (they escape to the caller).
type arena struct {
	// Rewound instead of reallocated: each type's Reseed/Reset is
	// bit-identical to a fresh construction.
	bank  *sensor.Bank
	bg    *workload.Background
	sched *kernel.Sched

	tasks  []kernel.Task // fully rewritten per run
	flat   []float64     // per-step vector buffers, zeroed per run
	series []float64     // max-core series backing
	preds  []float64     // prediction-accounting ring backing
}

var arenas = sync.Pool{New: func() any { return new(arena) }}

// scratch returns s resliced to length n, reallocating only when the
// pooled backing is too small. Contents are unspecified.
func scratch[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// release returns the arena to the pool. The task slab is cleared so a
// future holder does not pin this run's demand closures.
func (a *arena) release() {
	clear(a.tasks)
	arenas.Put(a)
}

// Run executes one benchmark or script under one policy. The context
// cancels the run between control intervals: on cancellation Run returns
// the partial Result over the completed intervals together with an error
// wrapping both ErrCancelled and the context's cause. With an
// Options.Observer attached, the observer has then seen exactly the
// intervals the partial result (and its recorder, when recording)
// contains.
func (r *Runner) Run(ctx context.Context, opt Options) (*Result, error) {
	script := opt.Script
	if opt.ControlPeriod == 0 {
		opt.ControlPeriod = 0.1
	}
	if opt.TMax == 0 {
		opt.TMax = 63
	}
	if opt.MaxDuration == 0 {
		if script != nil {
			opt.MaxDuration = script.Duration()
		} else {
			opt.MaxDuration = 4 * opt.Bench.NominalDuration()
			if opt.MaxDuration < 60 {
				opt.MaxDuration = 60
			}
		}
	}
	if opt.Governor == "" {
		opt.Governor = "ondemand"
	}
	gov, err := governor.ByName(opt.Governor)
	if err != nil {
		return nil, err
	}
	gpuGov := governor.NewGPU()

	desc := r.Descriptor()
	chip := platform.NewChipFor(desc)
	nodes := chip.BigCluster.NumCores() // hotspot/sensor node count
	maxCores := desc.MaxClusterCores()
	tsim := thermal.NewSim(r.Thermal)
	tsim.SetState(r.IdleState())
	// Fanless platforms have no controller: the with-fan policy degenerates
	// to the plain governor and fan speed stays 0.
	var fan *thermal.FanController
	if desc.Fan != nil {
		fan = thermal.NewFanControllerFor(*desc.Fan)
	}
	reactive := dtpm.NewReactiveHeuristic()

	if opt.Model != nil {
		if opt.Model.States() != nodes {
			return nil, fmt.Errorf("sim: %w: model order %d vs platform %s (%d hotspot nodes) — characterize the same platform the run uses",
				ErrModelPlatformMismatch, opt.Model.States(), desc.Name, nodes)
		}
		// Same order is not enough: two profiles can both carry, say, four
		// hotspots while their silicon constants differ completely. A model
		// stamped with its origin platform must only drive that platform.
		if opt.Model.Platform != "" && opt.Model.Platform != desc.Name {
			return nil, fmt.Errorf("sim: %w: model was identified on platform %s, refusing to drive %s with it",
				ErrModelPlatformMismatch, opt.Model.Platform, desc.Name)
		}
	}
	var ctrl *dtpm.Controller
	if opt.Policy == PolicyDTPM {
		if opt.Model == nil {
			return nil, fmt.Errorf("sim: PolicyDTPM requires an identified thermal model")
		}
		pm := opt.PowerModel
		if pm == nil {
			pm = r.groundTruthPowerModel()
		} else {
			// The controller observes into its power model every interval;
			// clone so a shared fitted model is never mutated. This keeps
			// each run independent of what ran before it (and makes
			// concurrent cells race-free).
			pm = pm.Clone()
		}
		cfg := dtpm.DefaultConfig()
		if opt.DTPM != nil {
			cfg = *opt.DTPM
		}
		cfg.TMax = opt.TMax
		ctrl, err = dtpm.NewController(cfg, opt.Model, pm)
		if err != nil {
			return nil, err
		}
	}

	a := arenas.Get().(*arena)
	defer a.release()
	if a.bank == nil {
		a.bank = sensor.NewBank(r.Sensors, opt.Seed)
	} else {
		a.bank.Reseed(r.Sensors, opt.Seed)
	}
	bank := a.bank
	if a.bg == nil || a.bg.Cores() != nodes {
		a.bg = workload.NewBackgroundN(opt.Seed+77, nodes)
	} else {
		a.bg.Reseed(opt.Seed + 77)
	}
	bg := a.bg
	if a.sched == nil {
		a.sched = kernel.NewSched()
	} else {
		a.sched.Reset()
	}
	sched := a.sched

	// Allocation-reuse invariant: everything the per-step loop touches is
	// either a fixed-size value or preallocated here at full capacity —
	// sized from the platform descriptor, not from constants — so the hot
	// loop itself performs no heap allocation (BenchmarkSimCell* in the
	// repo root tracks this with -benchmem). Keep it that way when adding
	// per-step state.
	dt := opt.ControlPeriod
	steps := int(opt.MaxDuration/dt) + 1
	nWorkers := opt.Bench.Threads
	if script != nil {
		nWorkers = script.Workers()
	}
	nTasks := nWorkers + nodes
	// One flat backing array for every per-step vector buffer.
	a.flat = scratch(a.flat, maxCores+4*nodes+nTasks)
	flat := a.flat
	clear(flat)
	var (
		prevUtil    = flat[0:maxCores:maxCores]
		sensedTemps = flat[maxCores : maxCores+nodes : maxCores+nodes]
		corePow     = flat[maxCores+nodes : maxCores+2*nodes : maxCores+2*nodes]
		predStep    = flat[maxCores+2*nodes : maxCores+3*nodes : maxCores+3*nodes]
		// per-step thermal state snapshot buffer
		st = thermal.State{Core: flat[maxCores+3*nodes : maxCores+4*nodes : maxCores+4*nodes]}
		// TickWith input: worker demands, then background levels.
		demands  = flat[maxCores+4*nodes:]
		bgLevels = demands[nWorkers:]

		prevGPUUtil float64
		prevPowers  [platform.NumResources]float64
		energy      float64
	)
	a.series = scratch(a.series, steps)
	maxTempSeries := a.series[:0]

	// Workload: worker tasks first, then one background daemon per hotspot
	// node — the order TickWith's demand indices follow. Script workers are
	// open-ended (the script decides when they idle) and take the demands
	// the script writes once per interval. Benchmark workers carry the
	// finite foreground work and keep their generator closure: it advances
	// an RNG on every call, so only Tick reproduces its stream.
	sched.Reserve(nTasks, maxCores)
	a.tasks = scratch(a.tasks, nTasks)
	tasks := a.tasks
	var gen *workload.Generator
	if script != nil {
		for i := 0; i < nWorkers; i++ {
			tasks[i] = kernel.Task{Name: script.Name(), WorkLeft: math.Inf(1)}
		}
	} else {
		gen = workload.NewGenerator(opt.Bench)
		for i := 0; i < nWorkers; i++ {
			tasks[i] = kernel.Task{
				Name:     opt.Bench.Name,
				Demand:   gen.DemandAt,
				MemBound: opt.Bench.MemBound,
				WorkLeft: opt.Bench.WorkPerThread,
			}
		}
	}
	copy(bgLevels, bg.UtilAt())
	for i := 0; i < nodes; i++ {
		tasks[nWorkers+i] = kernel.Task{Name: bgTaskName(i), MemBound: 0.3, WorkLeft: math.Inf(1)}
		if script == nil {
			tasks[nWorkers+i].Demand = func(float64) float64 { return bgLevels[i] }
		}
	}
	for i := range tasks {
		sched.Add(&tasks[i])
	}

	res := &Result{Bench: opt.Bench.Name, Policy: opt.Policy}
	var scriptDemandNames []string
	if script != nil {
		res.Bench = script.Name()
	}
	if opt.Record {
		res.Rec = trace.NewRecorder()
		if script != nil {
			for i := 0; i < nWorkers; i++ {
				scriptDemandNames = append(scriptDemandNames, fmt.Sprintf("demand_w%d", i))
			}
		}
	}
	govName := opt.Governor

	// Prediction-accuracy accounting (§6.3.1): model-order predictions per
	// step, stored flat. A negative horizon switches it off.
	horizon := opt.PredHorizon
	if horizon == 0 {
		horizon = 10 // 1 s at 100 ms
	}
	var (
		predRing  []float64
		predictor *sysid.Predictor
	)
	if opt.Model != nil && horizon > 0 {
		a.preds = scratch(a.preds, steps*nodes)
		predRing = a.preds[:0]
		predictor = opt.Model.NewPredictor()
	}
	// Initialize the power observation with an idle reading. corePow is
	// free until the first interval's StepInto rewrites it.
	idleAct := power.ChipActivity{CoreUtil: prevUtil, CPUActivity: 1}
	tsim.StateInto(&st)
	b0, _ := r.GT.StepInto(corePow, chip, idleAct, st.Core, st.Board)
	prevPowers = b0.Domain

	// Cancellation is checked at the top of every control interval against
	// the context's done channel, fetched once: Done() on a cancellable
	// context allocates its channel lazily, and per-step Err() would take
	// its lock. context.Background keeps done nil, so a run pays one
	// never-ready select case per step and nothing else.
	done := ctx.Done()
	cancelled := false

	elapsed := 0.0
	for k := 0; k < steps; k++ {
		select {
		case <-done:
			cancelled = true
		default:
		}
		if cancelled {
			break
		}
		// Interval conditions. A benchmark fixes them for the whole run
		// except its GPU load. A script re-states them every interval in
		// one Step call that also writes the worker demands: governor swaps
		// take effect like a scaling_governor write (fresh instance, only
		// when the name changes, so replayed swaps land on the same step
		// with the same state), ambient moves the ground truth, and the
		// workers' memory-boundedness follows the phase.
		var cond Conditions
		if script == nil {
			cond = Conditions{
				GPUDemand:   gen.GPUUtilAt(elapsed),
				CPUActivity: opt.Bench.CPUActivity,
				GPUActivity: opt.Bench.GPUActivity,
				MemTraffic:  opt.Bench.MemTraffic,
			}
		} else {
			cond = script.Step(elapsed, demands[:nWorkers])
			if cond.Governor != "" && cond.Governor != govName {
				ng, gerr := governor.ByName(cond.Governor)
				if gerr != nil {
					return nil, gerr
				}
				gov, govName = ng, cond.Governor
			}
			if cond.AmbientC != 0 {
				tsim.P.Ambient = cond.AmbientC
			}
			for i := 0; i < nWorkers; i++ {
				tasks[i].MemBound = cond.MemBound
			}
			if res.Rec != nil {
				for i, name := range scriptDemandNames {
					res.Rec.Record(name, elapsed, demands[i])
				}
				res.Rec.Record("gpu_demand", elapsed, cond.GPUDemand)
				res.Rec.Record("ambient_c", elapsed, tsim.P.Ambient)
				res.Rec.Record("cpu_activity", elapsed, cond.CPUActivity)
				res.Rec.Record("gpu_activity", elapsed, cond.GPUActivity)
				res.Rec.Record("mem_traffic", elapsed, cond.MemTraffic)
				res.Rec.Record("mem_bound", elapsed, cond.MemBound)
				res.Rec.Record("gov_id", elapsed, float64(governor.Index(govName)))
			}
		}
		tsim.StateInto(&st)
		bank.ReadCoreTempsInto(sensedTemps, st.Core)
		sensedPowers := bank.ReadDomainPowers(prevPowers)
		maxSensed := sensedTemps[0]
		for _, t := range sensedTemps[1:] {
			if t > maxSensed {
				maxSensed = t
			}
		}

		// Default governors decide from last interval's utilization.
		active := chip.Active()
		govFreq := gov.Decide(prevUtil, active.Freq(), active.Domain)
		gpuWant := gpuGov.Decide(prevGPUUtil, chip.GPUFreq(), chip.GPUDomain)

		fanSpeed := 0.0
		effFreq := govFreq
		effGPU := gpuWant
		switch opt.Policy {
		case PolicyFan:
			if fan != nil {
				fanSpeed = fan.Update(maxSensed)
			}
		case PolicyNoFan:
			// governor only
		case PolicyReactive:
			if cap := reactive.Cap(maxSensed, active.Domain); cap != 0 && cap < effFreq {
				effFreq = cap
			}
		case PolicyDTPM:
			dec := ctrl.Update(chip, dtpm.Inputs{
				Temps:        sensedTemps,
				Powers:       sensedPowers,
				GovernorFreq: govFreq,
				GPUActive:    cond.GPUDemand > 0,
			})
			if res.Rec != nil {
				viol := 0.0
				if dec.Violation {
					viol = 1
				}
				res.Rec.Record("dtpm_violation", elapsed, viol)
				res.Rec.Record("dtpm_budget_w", elapsed, dec.TotalBudget)
				res.Rec.Record("dtpm_pred_c", elapsed, dec.PredictedMax)
			}
			lim := dec.Limits
			// Cluster migration.
			if lim.ForceLittle && chip.ActiveKind() == platform.BigCluster {
				chip.SwitchCluster(platform.LittleCluster)
				sched.MigrateAll()
				gov.Reset()
				ctrl.Power.AlphaC[platform.Little].Reset()
			} else if !lim.ForceLittle && chip.ActiveKind() == platform.LittleCluster {
				chip.SwitchCluster(platform.BigCluster)
				sched.MigrateAll()
				gov.Reset()
				ctrl.Power.AlphaC[platform.Big].Reset()
			}
			active = chip.Active()
			// Hotplug to the allowed core count.
			applyCoreLimit(chip, lim)
			// Frequency caps.
			effFreq = gov.Decide(prevUtil, active.Freq(), active.Domain)
			if chip.ActiveKind() == platform.BigCluster && lim.BigFreqCap != 0 && lim.BigFreqCap < effFreq {
				effFreq = lim.BigFreqCap
			}
			if chip.ActiveKind() == platform.LittleCluster && lim.LittleFreqCap != 0 && lim.LittleFreqCap < effFreq {
				effFreq = lim.LittleFreqCap
			}
			if lim.GPUFreqCap != 0 && lim.GPUFreqCap < effGPU {
				effGPU = lim.GPUFreqCap
			}
		}
		if err := active.SetFreq(effFreq); err != nil {
			return nil, err
		}
		if err := chip.SetGPUFreq(effGPU); err != nil {
			return nil, err
		}

		// Prediction-accuracy accounting: predict the hottest core 1 s
		// ahead from the current sensed state under current power.
		if predictor != nil {
			pred := predictor.PredictConstInto(predStep, sensedTemps, sensedPowers[:], horizon)
			predRing = append(predRing, pred...)
			if res.Rec != nil {
				// Timestamp at the instant the prediction refers to, so the
				// series overlays the measured trace (Figure 4.9). Scripted
				// traces are replay artifacts instead: they keep every
				// series on the control-step grid, because a shifted clock
				// would widen the CSV's union time grid past the scenario
				// end and corrupt the duration a replay infers from it.
				predT := elapsed + float64(horizon)*dt
				if script != nil {
					predT = elapsed
				}
				res.Rec.Record("predmax_c", predT, stats.Max(pred))
			}
		}

		// Advance the workload on the refreshed background levels.
		copy(bgLevels, bg.UtilAt())
		var tick kernel.TickResult
		if script != nil {
			tick = sched.TickWith(dt, active, demands)
		} else {
			tick = sched.Tick(dt, active)
		}
		// Copy the realized utilization (the tick buffer is reused): the
		// tail beyond the active cluster's width is zeroed so a cluster
		// migration never leaves stale readings for the governor.
		for i := copy(prevUtil, tick.CoreUtil); i < len(prevUtil); i++ {
			prevUtil[i] = 0
		}

		// GPU load: demand expressed at the max GPU frequency.
		gpuScale := float64(chip.GPUDomain.MaxFreq()) / float64(chip.GPUFreq())
		prevGPUUtil = math.Min(1, cond.GPUDemand*gpuScale)

		// Ground-truth power and thermal step, the power in one fused pass.
		sumUtil := 0.0
		for _, u := range tick.CoreUtil {
			sumUtil += u
		}
		act := power.ChipActivity{
			CoreUtil:    tick.CoreUtil,
			CPUActivity: cond.CPUActivity,
			GPUUtil:     prevGPUUtil,
			GPUActivity: cond.GPUActivity,
			MemTraffic:  cond.MemTraffic*math.Min(1, sumUtil) + 0.4*prevGPUUtil,
			FanSpeed:    fanSpeed,
		}
		breakdown, boardPow := r.GT.StepInto(corePow, chip, act, st.Core, st.Board)
		prevPowers = breakdown.Domain
		tsim.Step(dt, thermal.Input{CorePower: corePow, BoardPower: boardPow, FanSpeed: fanSpeed})

		// Metrics.
		trueMax := st.MaxCore()
		maxTempSeries = append(maxTempSeries, trueMax)
		platPower := breakdown.Platform()
		energy += platPower * dt
		if trueMax > opt.TMax {
			res.OverTMax += dt
		}
		// One Sample per interval feeds BOTH the recorder and the observer,
		// so a streamed sample and the recorded trace row can never diverge.
		// The struct lives on the stack: with neither recording nor an
		// observer this block is free.
		if res.Rec != nil || opt.Observer != nil {
			smp := Sample{
				Step:      k,
				Time:      elapsed,
				MaxTemp:   trueMax,
				FreqGHz:   active.Freq().GHz(),
				Power:     platPower,
				FanSpeed:  fanSpeed,
				Cores:     float64(active.OnlineCount()),
				Cluster:   float64(chip.ActiveKind()),
				GPUMHz:    chip.GPUFreq().MHz(),
				BoardTemp: st.Board,
				BigPower:  breakdown.Domain[platform.Big],
			}
			if res.Rec != nil {
				res.Rec.Record("maxtemp", smp.Time, smp.MaxTemp)
				res.Rec.Record("freq_ghz", smp.Time, smp.FreqGHz)
				res.Rec.Record("power_w", smp.Time, smp.Power)
				res.Rec.Record("fan", smp.Time, smp.FanSpeed)
				res.Rec.Record("cores", smp.Time, smp.Cores)
				res.Rec.Record("cluster", smp.Time, smp.Cluster)
				res.Rec.Record("gpu_mhz", smp.Time, smp.GPUMHz)
				res.Rec.Record("board", smp.Time, smp.BoardTemp)
				res.Rec.Record("bigpower_w", smp.Time, smp.BigPower)
			}
			if opt.Observer != nil {
				opt.Observer(smp)
			}
		}
		elapsed += dt

		if script != nil {
			// A script completes on its clock, not on retired work (its
			// workers are open-ended, so AllForegroundDone would fire
			// immediately).
			if elapsed >= script.Duration()-1e-9 {
				res.Completed = true
				break
			}
		} else if sched.AllForegroundDone() {
			res.Completed = true
			break
		}
	}

	if res.Completed && script == nil {
		res.ExecTime = sched.LastFinish()
	} else {
		res.ExecTime = elapsed
	}
	res.Energy = energy
	// A run cancelled before its first interval completed has no samples;
	// leave the zero-value metrics rather than dividing by zero elapsed
	// time or taking the max of an empty series.
	if len(maxTempSeries) > 0 {
		res.AvgPower = energy / elapsed
		res.MaxTemp = stats.Max(maxTempSeries)
		res.AvgTemp = stats.Mean(maxTempSeries)
		res.TempVar = stats.Variance(maxTempSeries)
		res.Spread = stats.Spread(maxTempSeries)
		ss := steadyWindow(maxTempSeries, opt.TMax)
		res.SSAvgTemp = stats.Mean(ss)
		res.SSTempVar = stats.Variance(ss)
		res.SSSpread = stats.Spread(ss)
	}

	// Close the prediction accounting: compare each prediction with the
	// true temperature measured `horizon` intervals later.
	if predictor != nil {
		var sum, worst, worstAbs float64
		n := 0
		for k := 0; k+horizon < len(maxTempSeries) && k < len(predRing)/nodes; k++ {
			predMax := stats.Max(predRing[k*nodes : (k+1)*nodes])
			meas := maxTempSeries[k+horizon]
			if meas <= 0 {
				continue
			}
			abs := math.Abs(predMax - meas)
			pct := 100 * abs / meas
			sum += pct
			n++
			if pct > worst {
				worst = pct
			}
			if abs > worstAbs {
				worstAbs = abs
			}
		}
		if n > 0 {
			res.PredMeanPct = sum / float64(n)
			res.PredMaxPct = worst
			res.PredMaxAbsC = worstAbs
		}
	}
	if cancelled {
		return res, fmt.Errorf("sim: %w after %.1f s (%w)", ErrCancelled, elapsed, context.Cause(ctx))
	}
	return res, nil
}

// steadyWindow returns the slice of the series after the cold-start ramp:
// from the first sample within 3 °C of tMax, or from 30% of the run when the
// trace never gets that hot.
func steadyWindow(series []float64, tMax float64) []float64 {
	if len(series) == 0 {
		return series
	}
	start := int(0.3 * float64(len(series)))
	for i, v := range series {
		if v >= tMax-3 {
			start = i
			break
		}
	}
	if start >= len(series) {
		start = len(series) - 1
	}
	return series[start:]
}

// applyCoreLimit hotplugs big-cluster cores to match the DTPM limit.
func applyCoreLimit(chip *platform.Chip, lim dtpm.Limits) {
	if chip.ActiveKind() != platform.BigCluster {
		return
	}
	cl := chip.BigCluster
	n := cl.NumCores()
	if lim.OfflineCore >= 0 && cl.OnlineCount() > lim.MaxBigCores {
		_ = cl.SetCoreOnline(lim.OfflineCore, false)
	}
	// Shed further cores if still above the limit (deterministic order).
	for i := n - 1; i >= 0 && cl.OnlineCount() > lim.MaxBigCores; i-- {
		if cl.CoreOnline(i) {
			_ = cl.SetCoreOnline(i, false)
		}
	}
	// Restore cores when allowed.
	for i := 0; i < n && cl.OnlineCount() < lim.MaxBigCores; i++ {
		if !cl.CoreOnline(i) {
			_ = cl.SetCoreOnline(i, true)
		}
	}
}
