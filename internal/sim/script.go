package sim

// Script drives time-varying run conditions through the simulation loop —
// the hook the scenario engine compiles into. Where a plain benchmark run
// fixes the workload, governor, and ambient for the whole run, a script is
// consulted every control interval and may move all of them: timed phases
// that switch workloads, screen-off idle gaps, governor swaps mid-run,
// ambient-temperature profiles, and thermal-soak preludes.
//
// Every method must be a pure function of its arguments (no internal state
// advanced per call): trace replay depends on re-querying the same instants
// and getting bit-identical values back.
type Script interface {
	// Name labels the run (Result.Bench).
	Name() string
	// Duration is the scripted wall-clock length in seconds; the run
	// completes when it is reached.
	Duration() float64
	// Workers is the number of foreground worker tasks to schedule.
	Workers() int
	// Step returns the conditions at time t and writes each worker's
	// demanded fraction of workload.RefCapacity, in [0, 1], into demands
	// (len(demands) == Workers()). Workers idle in phases that use fewer
	// threads than Workers.
	Step(t float64, demands []float64) Conditions
}

// Conditions is the non-demand state a Script dictates at one instant.
type Conditions struct {
	// Governor is the cpufreq governor that should be active ("" = keep
	// the current one). The sim swaps to a fresh instance when the name
	// changes, like writing scaling_governor on real hardware.
	Governor string
	// AmbientC overrides the ambient temperature in °C (0 = keep).
	AmbientC float64
	// GPUDemand is the demanded GPU utilization at the maximum GPU
	// frequency, in [0, 1].
	GPUDemand float64
	// CPUActivity / GPUActivity are switching-activity factors relative to
	// the nominal alphaC (1.0 = typical integer code).
	CPUActivity float64
	GPUActivity float64
	// MemTraffic is the memory-traffic activity level (0..~2), scaled by
	// realized CPU utilization like a benchmark's.
	MemTraffic float64
	// MemBound is the workers' memory-stall fraction in [0, 1).
	MemBound float64
}
