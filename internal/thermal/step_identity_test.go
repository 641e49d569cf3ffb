package thermal

import (
	"math"
	"math/rand"
	"testing"
)

// refSim is the straightforward integrator Sim.Step must match bit for
// bit: every conductance recomputed inside every derivative call, params
// read through the struct, the stage built element by element. Sim
// hoists that work out of the loop; the floats must not move.
type refSim struct {
	p     Params
	nbr   [][]int
	s     State
	stage State
	k     [4][]float64
}

func newRefSim(p Params) *refSim {
	n := p.Cores()
	r := &refSim{p: p, nbr: p.neighbors(), s: uniformState(n, p.Ambient), stage: uniformState(n, p.Ambient)}
	for i := range r.k {
		r.k[i] = make([]float64, n)
	}
	return r
}

// uniformState returns a state with n core nodes and the board at t.
func uniformState(n int, t float64) State {
	s := State{Core: make([]float64, n), Board: t}
	for i := range s.Core {
		s.Core[i] = t
	}
	return s
}

func (r *refSim) derivative(st State, in Input, dCore []float64) (dBoard float64) {
	p := &r.p
	fan := clamp01(in.FanSpeed)
	fanEff := fan * fan * fan * fan
	gAmb := p.GBoardAmb + p.GFanMax*fanEff
	gFanCore := p.GFanCoreMax * fanEff
	var toBoard float64
	for i := range dCore {
		gcb := p.GCoreBoard * coreAsym(p, i)
		q := 0.0
		if i < len(in.CorePower) {
			q = in.CorePower[i]
		}
		q -= gcb * (st.Core[i] - st.Board)
		q -= gFanCore * (st.Core[i] - p.Ambient)
		for _, j := range r.nbr[i] {
			q -= p.GCoreCore * (st.Core[i] - st.Core[j])
		}
		dCore[i] = q / p.CCore
		toBoard += gcb * (st.Core[i] - st.Board)
	}
	qb := in.BoardPower + toBoard - gAmb*(st.Board-p.Ambient)
	return qb / p.CBoard
}

func (r *refSim) step(dt float64, in Input) {
	tau := r.p.CCore / (r.p.GCoreBoard + 2*r.p.GCoreCore)
	sub := int(math.Ceil(dt / (tau / 4)))
	if sub < 1 {
		sub = 1
	}
	h := dt / float64(sub)
	for n := 0; n < sub; n++ {
		r.rk4(h, in)
	}
}

func (r *refSim) rk4(h float64, in Input) {
	stage := func(kc []float64, kb, w float64) {
		for i := range r.stage.Core {
			r.stage.Core[i] = r.s.Core[i] + w*kc[i]
		}
		r.stage.Board = r.s.Board + w*kb
	}
	k1b := r.derivative(r.s, in, r.k[0])
	stage(r.k[0], k1b, h/2)
	k2b := r.derivative(r.stage, in, r.k[1])
	stage(r.k[1], k2b, h/2)
	k3b := r.derivative(r.stage, in, r.k[2])
	stage(r.k[2], k3b, h)
	k4b := r.derivative(r.stage, in, r.k[3])
	for i := range r.s.Core {
		r.s.Core[i] += h / 6 * (r.k[0][i] + 2*r.k[1][i] + 2*r.k[2][i] + r.k[3][i])
	}
	r.s.Board += h / 6 * (k1b + 2*k2b + 2*k3b + k4b)
}

// TestStepMatchesReference drives Sim and refSim through the same inputs
// on 4- and 8-core networks with floorplan asymmetry, a moving fan,
// uneven per-core power (including short CorePower slices), sub-stepped
// and single-step dts, and an ambient that changes between steps as
// scenario conditions do, and requires identical bits after every step.
func TestStepMatchesReference(t *testing.T) {
	eight := DefaultParams()
	eight.NumCores = 8
	eight.CoreAsym = []float64{1.00, 1.07, 0.94, 1.03, 0, 1.05, 0.97, 1.02}
	for name, p := range map[string]Params{"4-core": DefaultParams(), "8-core": eight} {
		sim, ref := NewSim(p), newRefSim(p)
		n := p.Cores()
		rng := rand.New(rand.NewSource(int64(n)))
		in := Input{CorePower: make([]float64, n)}
		for step := 0; step < 400; step++ {
			for i := range in.CorePower {
				in.CorePower[i] = 1.2 * rng.Float64()
			}
			in.BoardPower = 2 * rng.Float64()
			in.FanSpeed = 1.2*rng.Float64() - 0.1
			cp := in
			if step%7 == 0 {
				cp.CorePower = in.CorePower[:n/2]
			}
			if step%50 == 0 {
				amb := 20 + 25*rng.Float64()
				sim.P.Ambient, ref.p.Ambient = amb, amb
			}
			dt := 0.1
			if step%11 == 0 {
				dt = 1.3
			}
			got := sim.Step(dt, cp)
			ref.step(dt, cp)
			if math.Float64bits(got.Board) != math.Float64bits(ref.s.Board) {
				t.Fatalf("%s step %d: board %v, reference %v", name, step, got.Board, ref.s.Board)
			}
			for i, c := range got.Core {
				if math.Float64bits(c) != math.Float64bits(ref.s.Core[i]) {
					t.Fatalf("%s step %d core %d: %v, reference %v", name, step, i, c, ref.s.Core[i])
				}
			}
		}
	}
}
