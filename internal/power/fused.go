package power

import "repro/internal/platform"

// StepInto evaluates the ground-truth power of one instant (Eq. 4.1
// dynamic plus Eq. 4.2 leakage per domain) for the given chip
// configuration, activity, and temperatures. coreTemps are the big-cluster
// hotspot temperatures (°C) used for big-cluster leakage; boardTemp (°C) is
// used for the other domains. Per-core leakage uses each core's own hotspot
// temperature, which is what makes the leakage-temperature loop (§4.1.1)
// visible to the DTPM algorithm.
//
// It returns the Breakdown, writes the per-hotspot powers of the big
// cluster into core (length = big-cluster core count), and returns the
// board-node power (little + GPU + mem + gated residuals) for the thermal
// network. When the little cluster is active the big cores dissipate only
// their gated residual and the little cluster's power heats the board
// node. Each Dynamic and Leakage term is computed once and feeds both
// outputs; fused_test.go pins the result bit for bit against a reference
// that evaluates the breakdown and the hotspot powers separately.
func (g *GroundTruth) StepInto(core []float64, chip *platform.Chip, act ChipActivity, coreTemps []float64, boardTemp float64) (Breakdown, float64) {
	var b Breakdown
	b.Base = g.Base
	b.Fan = g.FanPower(act.FanSpeed)

	active := chip.Active()
	v := active.Volt()
	f := active.Freq()

	res := platform.Big
	if active.Kind == platform.LittleCluster {
		res = platform.Little
	}
	nc := active.NumCores()
	nBig := chip.BigCluster.NumCores()
	bigActive := chip.ActiveKind() == platform.BigCluster

	// Active cluster: per-core dynamic power plus per-core leakage share.
	// When the big cluster is active each core's dyn and leak terms also
	// form its hotspot power, so both outputs come from one evaluation.
	var dyn, leak float64
	for i := 0; i < nc; i++ {
		if !active.CoreOnline(i) {
			if bigActive {
				core[i] = 0
			}
			continue
		}
		di := g.Dynamic(res, v, f, act.CoreUtil[i], act.CPUActivity)
		t := boardTemp
		if res == platform.Big {
			t = coreTemps[i]
		}
		li := g.Leakage(res, t, v)
		dyn += di
		leak += li / float64(nc)
		if bigActive {
			core[i] = di + li/float64(nBig)
		}
	}
	b.Domain[res] = dyn + leak
	b.Leakage[res] = leak

	// Inactive cluster is power gated: a tiny residual leakage remains.
	inactive := platform.Little
	if res == platform.Little {
		inactive = platform.Big
	}
	residual := 0.02 * g.Leakage(inactive, boardTemp, g.Res[inactive].Leak.VNom)
	b.Domain[inactive] = residual
	b.Leakage[inactive] = residual

	// GPU.
	gv := chip.GPUVolt()
	gleak := g.Leakage(platform.GPU, boardTemp, gv)
	b.Domain[platform.GPU] = g.Dynamic(platform.GPU, gv, chip.GPUFreq(), act.GPUUtil, act.GPUActivity) + gleak
	b.Leakage[platform.GPU] = gleak

	// Memory: static + traffic + leak.
	mleak := g.Res[platform.Mem].Leak.Power(boardTemp, g.Res[platform.Mem].Leak.VNom)
	traffic := act.MemTraffic
	if traffic < 0 {
		traffic = 0
	}
	b.Domain[platform.Mem] = g.MemStatic + g.MemPerActivity*traffic + mleak
	b.Leakage[platform.Mem] = mleak

	// Big cores gated: split the residual evenly across the hotspots.
	if !bigActive {
		for i := 0; i < nBig; i++ {
			core[i] = b.Domain[platform.Big] / float64(nBig)
		}
	}
	board := b.Domain[platform.Little] + b.Domain[platform.GPU] + b.Domain[platform.Mem] + g.BaseBoardHeat
	return b, board
}
