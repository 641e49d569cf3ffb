package sysid

import (
	"context"
	"fmt"

	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/sensor"
	"repro/internal/thermal"
)

// Rig bundles the simulated measurement setup of Figure 6.1: the device
// (ground-truth power + thermal models standing in for the silicon), the
// sensors, and the sampling period.
type Rig struct {
	// Ctx, when set, aborts the characterization between its stages (each
	// furnace sweep and each PRBS experiment checks it before starting).
	// nil means context.Background.
	Ctx context.Context
	// Desc selects the platform under characterization (nil = the default
	// Exynos 5410 board).
	Desc    *platform.Descriptor
	GT      *power.GroundTruth
	Thermal thermal.Params
	Sensors *sensor.Bank
	Ts      float64 // sampling period, seconds (the kernel's 100 ms)
}

// cancelled reports the rig context's error, if any.
func (r *Rig) cancelled() error {
	if r.Ctx == nil {
		return nil
	}
	return r.Ctx.Err()
}

// NewRig returns the default experimental setup.
func NewRig(seed int64) *Rig {
	return &Rig{
		GT:      power.DefaultGroundTruth(),
		Thermal: thermal.DefaultParams(),
		Sensors: sensor.NewBank(sensor.DefaultConfig(), seed),
		Ts:      0.1,
	}
}

// desc resolves the platform descriptor.
func (r *Rig) desc() *platform.Descriptor {
	if r.Desc != nil {
		return r.Desc
	}
	return platform.Default()
}

// lightActivity is the furnace characterization workload (§4.1.1): a light
// load on one big core at a fixed operating point, so dynamic power is small
// and constant and the temperature tracks the furnace setpoint.
func lightActivity(cores int) power.ChipActivity {
	util := make([]float64, cores)
	util[0] = 0.03
	return power.ChipActivity{
		CoreUtil:    util,
		CPUActivity: 1,
		MemTraffic:  0.02,
	}
}

// prbsCoreUtil returns the core load pattern during CPU PRBS excitation:
// fully loaded but slightly imbalanced, like a real run with the Android
// stack's background threads (§6.1.3). The imbalance keeps the hotspot
// responses linearly independent. The first four entries reproduce the
// paper platform's pattern exactly; wider clusters extend it with a small
// per-repeat decrement so no two cores ever load identically.
func prbsCoreUtil(cores int) []float64 {
	base := [4]float64{1.0, 0.96, 0.99, 0.93}
	out := make([]float64, cores)
	for i := range out {
		out[i] = base[i%4] - 0.015*float64(i/4)
	}
	return out
}

// singleCoreUtil returns a pattern with only core 0 loaded at u (driver
// overhead / traffic-generator threads during GPU and memory PRBS).
func singleCoreUtil(cores int, u float64) []float64 {
	util := make([]float64, cores)
	util[0] = u
	return util
}

// FurnaceTempSweep reproduces the Figure 4.2 experiment: the platform sits
// in the furnace at each ambient setpoint running the light workload at the
// given big-cluster frequency; after settling, samplesPer sensor readings of
// (hotspot temperature, big-rail power) are logged per setpoint.
func (r *Rig) FurnaceTempSweep(setpointsC []float64, freq platform.KHz, samplesPer int) ([]FurnaceSample, error) {
	if err := r.cancelled(); err != nil {
		return nil, err
	}
	chip := platform.NewChipFor(r.desc())
	if err := chip.Active().SetFreq(freq); err != nil {
		return nil, err
	}
	v := chip.Active().Volt()
	act := lightActivity(chip.BigCluster.NumCores())
	core := make([]float64, chip.BigCluster.NumCores())

	var out []FurnaceSample
	for _, amb := range setpointsC {
		tp := r.Thermal
		tp.Ambient = amb
		sim := thermal.NewSim(tp)
		// Settle: iterate power<->temperature to the coupled steady state
		// (leakage depends on temperature, temperature on power: §4.1.1).
		st := sim.State()
		for i := 0; i < 5; i++ {
			_, board := r.GT.StepInto(core, chip, act, st.Core, st.Board)
			st = sim.SteadyState(thermal.Input{CorePower: core, BoardPower: board})
			sim.SetState(st)
		}
		truth, _ := r.GT.StepInto(core, chip, act, st.Core, st.Board)
		for s := 0; s < samplesPer; s++ {
			out = append(out, FurnaceSample{
				TempC: r.Sensors.ReadTemp(st.MaxCore()),
				Power: r.Sensors.ReadPower(truth.Domain[platform.Big]),
				Volt:  v,
				FHz:   freq.Hz(),
			})
		}
	}
	return out, nil
}

// FurnaceFreqSweep reproduces the Figure 4.6 experiment: at a constant
// furnace temperature, the light workload runs once per big-cluster DVFS
// step; samplesPer readings are logged per step. The result feeds FitAlphaC.
func (r *Rig) FurnaceFreqSweep(setpointC float64, samplesPer int) ([]FurnaceSample, error) {
	if err := r.cancelled(); err != nil {
		return nil, err
	}
	chip := platform.NewChipFor(r.desc())
	act := lightActivity(chip.BigCluster.NumCores())
	core := make([]float64, chip.BigCluster.NumCores())
	d := chip.Active().Domain

	var out []FurnaceSample
	for _, opp := range d.OPPs {
		if err := chip.Active().SetFreq(opp.Freq); err != nil {
			return nil, err
		}
		tp := r.Thermal
		tp.Ambient = setpointC
		sim := thermal.NewSim(tp)
		st := sim.State()
		for i := 0; i < 5; i++ {
			_, board := r.GT.StepInto(core, chip, act, st.Core, st.Board)
			st = sim.SteadyState(thermal.Input{CorePower: core, BoardPower: board})
			sim.SetState(st)
		}
		truth, _ := r.GT.StepInto(core, chip, act, st.Core, st.Board)
		for s := 0; s < samplesPer; s++ {
			out = append(out, FurnaceSample{
				TempC: r.Sensors.ReadTemp(st.MaxCore()),
				Power: r.Sensors.ReadPower(truth.Domain[platform.Big]),
				Volt:  opp.Volt,
				FHz:   opp.Freq.Hz(),
			})
		}
	}
	return out, nil
}

// CharacterizeLeakage runs the full §4.1 procedure for the big cluster:
// a frequency sweep at the coolest setpoint pins down the light workload's
// dynamic power, then the temperature sweep and the Gauss-Newton fit. The
// two fits are alternated a few times: the leakage law evaluated at each
// frequency-sweep sample's MEASURED temperature removes the self-heating
// bias from the alphaC estimate, which in turn sharpens the leakage fit.
func (r *Rig) CharacterizeLeakage() (power.LeakageParams, error) {
	vNom := r.GT.Res[platform.Big].Leak.VNom

	freqSweep, err := r.FurnaceFreqSweep(40, 8)
	if err != nil {
		return power.LeakageParams{}, err
	}
	alphaC, _, err := FitAlphaC(freqSweep, vNom)
	if err != nil {
		return power.LeakageParams{}, err
	}

	setpoints := []float64{40, 50, 60, 70, 80} // §4.1.1: 40-80 °C in 10 °C steps
	bigDomain := &r.desc().Big.Domain
	fixed := bigDomain.MaxFreq() // Figure 4.5 uses the top step (1.6 GHz on the Odroid)
	sweep, err := r.FurnaceTempSweep(setpoints, fixed, 12)
	if err != nil {
		return power.LeakageParams{}, err
	}
	v, _ := bigDomain.VoltAt(fixed)

	// Stage estimates seed the joint fit over both experiments.
	pDyn := alphaC * v * v * fixed.Hz()
	init, err := FitLeakage(sweep, pDyn, vNom)
	if err != nil {
		return power.LeakageParams{}, err
	}
	all := append(append([]FurnaceSample(nil), freqSweep...), sweep...)
	_, fit, err := FitPowerModelJoint(all, vNom, init, alphaC)
	return fit, err
}

// PRBSConfig configures one identification experiment.
type PRBSConfig struct {
	Resource platform.Resource // which power source to oscillate
	Duration float64           // seconds (the paper uses ~1050 s, Fig. 4.8)
	HoldSec  float64           // seconds each PRBS bit is held
	Seed     uint16            // LFSR seed
}

// DefaultPRBSConfig mirrors the Figure 4.8 experiment for a resource.
func DefaultPRBSConfig(res platform.Resource) PRBSConfig {
	return PRBSConfig{Resource: res, Duration: 1050, HoldSec: 3, Seed: 0x2F3}
}

// CollectPRBS runs one PRBS identification experiment: the chosen resource
// oscillates between its minimum and maximum operating point while the
// others stay constant or minimal (§4.2.1), and synchronized sensor samples
// of T[k] and P[k] are recorded every Ts.
func (r *Rig) CollectPRBS(cfg PRBSConfig) (*Dataset, error) {
	if err := r.cancelled(); err != nil {
		return nil, err
	}
	if cfg.Duration <= 0 || cfg.HoldSec <= 0 {
		return nil, fmt.Errorf("sysid: invalid PRBS config %+v", cfg)
	}
	desc := r.desc()
	chip := platform.NewChipFor(desc)
	sim := thermal.NewSim(r.Thermal)
	prbs := NewPRBS(cfg.Seed)
	n := int(cfg.Duration / r.Ts)
	hold := int(cfg.HoldSec / r.Ts)
	bits := prbs.HoldSequence(n, hold)

	nodes := chip.BigCluster.NumCores()
	ds := &Dataset{Ts: r.Ts, Ambient: r.Thermal.Ambient, States: nodes}
	core := make([]float64, nodes)

	// Baseline configuration: everything minimal.
	if err := chip.Active().SetFreq(chip.Active().Domain.MinFreq()); err != nil {
		return nil, err
	}
	if cfg.Resource == platform.Little {
		if !chip.HasLittle() {
			return nil, fmt.Errorf("sysid: platform %s has no little cluster to excite", desc.Name)
		}
		chip.SwitchCluster(platform.LittleCluster)
	}

	for k := 0; k < n; k++ {
		high := bits[k]
		act := power.ChipActivity{CPUActivity: 1, GPUActivity: 1, MemTraffic: 0.05}
		switch cfg.Resource {
		case platform.Big, platform.Little:
			f := chip.Active().Domain.MinFreq()
			if high {
				f = chip.Active().Domain.MaxFreq()
			}
			if err := chip.Active().SetFreq(f); err != nil {
				return nil, err
			}
			act.CoreUtil = prbsCoreUtil(chip.Active().NumCores())
		case platform.GPU:
			f := chip.GPUDomain.MinFreq()
			util := 0.05
			if high {
				f = chip.GPUDomain.MaxFreq()
				util = 1.0
			}
			if err := chip.SetGPUFreq(f); err != nil {
				return nil, err
			}
			act.GPUUtil = util
			act.CoreUtil = singleCoreUtil(nodes, 0.1) // driver overhead only
		case platform.Mem:
			act.MemTraffic = 0.05
			if high {
				act.MemTraffic = 1.8
			}
			act.CoreUtil = singleCoreUtil(nodes, 0.15) // traffic generator
		default:
			return nil, fmt.Errorf("sysid: unknown resource %v", cfg.Resource)
		}

		st := sim.State()
		truth, board := r.GT.StepInto(core, chip, act, st.Core, st.Board)
		temps := r.Sensors.ReadCoreTemps(st.Core)
		powers := r.Sensors.ReadDomainPowers(truth.Domain)
		ds.Append(temps, powers[:])

		sim.Step(r.Ts, thermal.Input{CorePower: core, BoardPower: board})
	}
	return ds, nil
}

// CharacterizeThermal runs the paper's complete thermal identification:
// one PRBS experiment per power resource, then staged least squares. On
// single-cluster platforms the little-cluster experiment is skipped (its B
// column stays zero: the domain never draws power).
func (r *Rig) CharacterizeThermal() (*ThermalModel, []*Dataset, error) {
	datasets := make([]*Dataset, NumInputs)
	for res := platform.Big; res < platform.NumResources; res++ {
		if res == platform.Little && !r.desc().HasLittle() {
			continue
		}
		cfg := DefaultPRBSConfig(res)
		cfg.Seed += uint16(res) * 97
		ds, err := r.CollectPRBS(cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("sysid: PRBS for %s: %w", res, err)
		}
		datasets[res] = ds
	}
	model, err := IdentifyStaged(datasets)
	if err != nil {
		return nil, nil, err
	}
	model.Platform = r.desc().Name
	return model, datasets, nil
}
