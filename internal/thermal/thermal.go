// Package thermal implements the ground-truth thermal behaviour of a
// simulated mobile platform: a lumped RC network following the electrical
// duality of Equation 4.3,
//
//	C_t dT/dt = -G_t (T - T_amb) + M P
//
// with N core hotspot nodes (which carry the on-die temperature sensors,
// §6.1.2) and one board/package node that aggregates the little cluster,
// GPU, memory, and case. The fan — when the platform has one — adds
// convective conductance from the board node to ambient.
//
// The default parameter set models the Odroid-XU+E of the paper (four
// big-core hotspots); the node count, floorplan adjacency, per-core
// asymmetry, and fan model are all data (Params), so the same integrator
// serves any registered platform descriptor.
//
// The identified model of §4.2 (package sysid) is an N-state discretized
// approximation of this (N+1)-state continuous network, exactly mirroring
// the situation on real silicon where the identified model is low-order
// relative to the physical heat-flow system.
package thermal

import (
	"fmt"
	"math"
)

// NumCoreNodes is the number of hotspot (sensor-bearing) nodes of the
// default (Exynos 5410) network; Params.NumCores overrides it per platform.
const NumCoreNodes = 4

// Params describe the RC network.
type Params struct {
	// NumCores is the number of core hotspot nodes (0 = NumCoreNodes).
	NumCores int
	// CCore is each core node's thermal capacitance (J/K).
	CCore float64
	// CBoard is the board/package node capacitance (J/K).
	CBoard float64
	// GCoreBoard is the conductance from each core to the board (W/K).
	GCoreBoard float64
	// GCoreCore is the conductance between adjacent cores (W/K); by default
	// cores are arranged in a two-column grid (0-1 / 2-3 / ... , Figure 1.2)
	// with 4-neighbour coupling. Neighbors overrides the adjacency.
	GCoreCore float64
	// CoreAsym are per-core multipliers on GCoreBoard modelling floorplan
	// asymmetry (corner vs. center placement, TIM thickness variation).
	// Real dies are never perfectly symmetric; this is also what makes the
	// N-output identification problem well posed. Zero entries (or a nil /
	// short slice) are treated as 1 so the zero value of Params stays usable.
	CoreAsym []float64
	// Neighbors is the core-node adjacency (Neighbors[i] lists the nodes
	// coupled to i through GCoreCore). Nil means the default two-column grid
	// for NumCores nodes. Entries must be symmetric: j in Neighbors[i] iff
	// i in Neighbors[j].
	Neighbors [][]int
	// GBoardAmb is the passive board-to-ambient conductance (W/K).
	GBoardAmb float64
	// GFanMax is the extra board-to-ambient convective conductance at 100%
	// fan speed (W/K). Zero on fanless platforms.
	GFanMax float64
	// GFanCoreMax is the extra per-core convective conductance at 100% fan
	// speed (W/K): the stock fan blows directly over the SoC heatsink, so
	// it cools the die, not only the board. Zero on fanless platforms.
	GFanCoreMax float64
	// Ambient is the ambient temperature in °C.
	Ambient float64
}

// Cores returns the hotspot node count (NumCores, defaulting to
// NumCoreNodes for the zero value).
func (p Params) Cores() int {
	if p.NumCores > 0 {
		return p.NumCores
	}
	return NumCoreNodes
}

// GridNeighbors returns the default two-column-grid adjacency for n core
// nodes: node i sits at (row i/2, column i%2) and couples to its horizontal
// and vertical neighbours. Neighbour lists are ascending, which for n = 4
// reproduces the paper platform's 0-1 / 2-3 floorplan exactly.
func GridNeighbors(n int) [][]int {
	out := make([][]int, n)
	for i := 0; i < n; i++ {
		var nb []int
		// Candidates in ascending index order: the row above, the other
		// column of the same row, the row below.
		for _, j := range [3]int{i - 2, i ^ 1, i + 2} {
			if j >= 0 && j < n && j != i {
				nb = append(nb, j)
			}
		}
		out[i] = nb
	}
	return out
}

// neighbors resolves the effective adjacency.
func (p Params) neighbors() [][]int {
	if p.Neighbors != nil {
		return p.Neighbors
	}
	return GridNeighbors(p.Cores())
}

// DefaultParams returns the calibrated Odroid-XU+E network. The constants
// are chosen so the simulated platform matches the paper's measured thermal
// behaviour: no-fan high load exceeds 85 °C within minutes (Figure 1.1),
// full fan holds ~55-62 °C, PRBS power swings of ~2.4 W move the hotspots by
// 10-20 °C with a time constant of a few seconds (Figure 4.8), and the board
// drifts with a ~2-3 minute time constant.
func DefaultParams() Params {
	return Params{
		NumCores:    NumCoreNodes,
		CCore:       0.50,
		CBoard:      5.0,
		GCoreBoard:  0.080,
		GCoreCore:   0.300,
		CoreAsym:    []float64{1.00, 1.07, 0.94, 1.03},
		GBoardAmb:   0.071,
		GFanMax:     0.280,
		GFanCoreMax: 0.040,
		Ambient:     30.0,
	}
}

// State is the instantaneous temperature of every node in °C.
type State struct {
	Core  []float64
	Board float64
}

// NewState returns a state with n core nodes at temperature t.
func NewState(n int, t float64) State {
	s := State{Core: make([]float64, n), Board: t}
	for i := range s.Core {
		s.Core[i] = t
	}
	return s
}

// Clone returns a deep copy (State carries a slice; assignment aliases it).
func (s State) Clone() State {
	c := State{Core: make([]float64, len(s.Core)), Board: s.Board}
	copy(c.Core, s.Core)
	return c
}

// MaxCore returns the hottest core temperature.
func (s State) MaxCore() float64 {
	m := s.Core[0]
	for _, t := range s.Core[1:] {
		if t > m {
			m = t
		}
	}
	return m
}

// HottestCore returns the index of the hottest core.
func (s State) HottestCore() int {
	idx := 0
	for i, t := range s.Core {
		if t > s.Core[idx] {
			idx = i
		}
		_ = t
	}
	return idx
}

// Input is the power injected into the network during one step.
type Input struct {
	// CorePower is the per-core power of the big cluster (W), one entry per
	// hotspot node. When the little cluster is active these are ~0 and its
	// power appears in BoardPower.
	CorePower []float64
	// BoardPower aggregates little-cluster, GPU, and memory power (W).
	BoardPower float64
	// FanSpeed is the fan speed fraction [0, 1].
	FanSpeed float64
}

// Sim integrates the network. All per-step scratch is preallocated at
// construction, so Step performs no heap allocation (the simulation hot
// loop depends on this).
type Sim struct {
	// P is the network the Sim integrates. Only P.Ambient may change after
	// NewSim (scenario conditions move it between intervals); the
	// conductances are cached at construction, so edits to any other field
	// are not seen.
	P   Params
	nbr [][]int
	gcb []float64 // per-core GCoreBoard·coreAsym
	s   State

	// RK4 scratch: stage core temperatures and the four derivative
	// estimates.
	stage              []float64
	k1c, k2c, k3c, k4c []float64
}

// NewSim returns a simulator with every node at ambient.
func NewSim(p Params) *Sim {
	n := p.Cores()
	// One flat backing array serves the state, the stage, the four RK4
	// derivative buffers and the core-board conductances: a Sim costs two
	// allocations, not nine (the campaign engine builds one per
	// simulation cell).
	flat := make([]float64, 7*n)
	sim := &Sim{
		P:     p,
		nbr:   p.neighbors(),
		s:     State{Core: flat[0:n:n], Board: p.Ambient},
		stage: flat[n : 2*n : 2*n],
		k1c:   flat[2*n : 3*n : 3*n],
		k2c:   flat[3*n : 4*n : 4*n],
		k3c:   flat[4*n : 5*n : 5*n],
		k4c:   flat[5*n : 6*n : 6*n],
		gcb:   flat[6*n : 7*n : 7*n],
	}
	for i := range sim.gcb {
		sim.gcb[i] = p.GCoreBoard * coreAsym(&p, i)
	}
	sim.Reset()
	return sim
}

// Reset returns every node to ambient temperature.
func (s *Sim) Reset() {
	for i := range s.s.Core {
		s.s.Core[i] = s.P.Ambient
	}
	s.s.Board = s.P.Ambient
}

// SetState forces the node temperatures (used by tests and the furnace).
// The state is copied; the caller keeps ownership of st.Core.
func (s *Sim) SetState(st State) {
	copy(s.s.Core, st.Core)
	s.s.Board = st.Board
}

// State returns a copy of the current node temperatures.
func (s *Sim) State() State { return s.s.Clone() }

// StateInto copies the current node temperatures into dst, resizing
// dst.Core if needed, and returns dst. The allocation-free read for the
// per-step loop.
func (s *Sim) StateInto(dst *State) *State {
	if len(dst.Core) != len(s.s.Core) {
		dst.Core = make([]float64, len(s.s.Core))
	}
	copy(dst.Core, s.s.Core)
	dst.Board = s.s.Board
	return dst
}

// fanConductances returns the fan-dependent conductances of one input:
// board-to-ambient and the extra per-core convective term.
func (s *Sim) fanConductances(fanSpeed float64) (gAmb, gFanCore float64) {
	// Convective conductance grows strongly superlinearly with fan duty
	// (airflow rises with RPM and the boundary layer thins with airflow);
	// a quartic law makes the stock controller's idle duty nearly neutral
	// and its upper steps aggressive. The resulting over-cool/re-heat
	// limit cycle is the wide with-fan oscillation of Figures 6.3-6.4.
	fan := clamp01(fanSpeed)
	fanEff := fan * fan * fan * fan
	return s.P.GBoardAmb + s.P.GFanMax*fanEff, s.P.GFanCoreMax * fanEff
}

// derivative evaluates dT/dt at core temperatures core and board
// temperature board, writing the core derivatives into dCore. gAmb and
// gFanCore come from fanConductances for the same input.
func (s *Sim) derivative(core []float64, board float64, in *Input, gAmb, gFanCore float64, dCore []float64) (dBoard float64) {
	amb, gcc, cc := s.P.Ambient, s.P.GCoreCore, s.P.CCore
	core, gcb := core[:len(dCore)], s.gcb[:len(dCore)]
	var toBoard float64
	for i, ci := range core {
		// Entries beyond len(CorePower) are zero (Input{} means no power,
		// matching the old fixed-array semantics).
		q := 0.0
		if i < len(in.CorePower) {
			q = in.CorePower[i]
		}
		qcb := gcb[i] * (ci - board)
		q -= qcb
		q -= gFanCore * (ci - amb)
		for _, j := range s.nbr[i] {
			q -= gcc * (ci - core[j])
		}
		dCore[i] = q / cc
		toBoard += qcb
	}
	qb := in.BoardPower + toBoard - gAmb*(board-amb)
	return qb / s.P.CBoard
}

// Step advances the network by dt seconds with the given input, using RK4
// with internal sub-stepping sized to the fastest time constant so the
// integration stays stable for any caller-supplied dt.
func (s *Sim) Step(dt float64, in Input) State {
	if dt <= 0 {
		return s.s
	}
	// Fastest time constant ~ CCore / (GCoreBoard + 2*GCoreCore).
	tau := s.P.CCore / (s.P.GCoreBoard + 2*s.P.GCoreCore)
	sub := int(math.Ceil(dt / (tau / 4)))
	if sub < 1 {
		sub = 1
	}
	h := dt / float64(sub)
	for n := 0; n < sub; n++ {
		s.rk4(h, &in)
	}
	return s.s
}

// rk4 advances one internal step. The stage arithmetic replays the
// classical tableau exactly as the fixed-size implementation did
// (stage = state + w*k element-wise, then the 1/6 weighted sum), so the
// trajectory is bit-identical for the same parameters.
func (s *Sim) rk4(h float64, in *Input) {
	gAmb, gFanCore := s.fanConductances(in.FanSpeed)
	x := s.s.Core
	n := len(x)
	st, k1, k2, k3, k4 := s.stage[:n], s.k1c[:n], s.k2c[:n], s.k3c[:n], s.k4c[:n]
	xb := s.s.Board
	h2, h6 := h/2, h/6
	k1b := s.derivative(x, xb, in, gAmb, gFanCore, k1)
	for i, xi := range x {
		st[i] = xi + h2*k1[i]
	}
	k2b := s.derivative(st, xb+h2*k1b, in, gAmb, gFanCore, k2)
	for i, xi := range x {
		st[i] = xi + h2*k2[i]
	}
	k3b := s.derivative(st, xb+h2*k2b, in, gAmb, gFanCore, k3)
	for i, xi := range x {
		st[i] = xi + h*k3[i]
	}
	k4b := s.derivative(st, xb+h*k3b, in, gAmb, gFanCore, k4)
	for i := range x {
		x[i] += h6 * (k1[i] + 2*k2[i] + 2*k3[i] + k4[i])
	}
	s.s.Board = xb + h6*(k1b+2*k2b+2*k3b+k4b)
}

// SteadyState returns the equilibrium temperatures for a constant input,
// found by integrating until the largest derivative is negligible.
func (s *Sim) SteadyState(in Input) State {
	saved := s.s.Clone()
	defer func() { s.SetState(saved) }()
	dc := make([]float64, len(s.s.Core))
	gAmb, gFanCore := s.fanConductances(in.FanSpeed)
	for iter := 0; iter < 200000; iter++ {
		s.Step(1.0, in)
		db := s.derivative(s.s.Core, s.s.Board, &in, gAmb, gFanCore, dc)
		m := math.Abs(db)
		for _, d := range dc {
			if math.Abs(d) > m {
				m = math.Abs(d)
			}
		}
		if m < 1e-7 {
			break
		}
	}
	return s.s.Clone()
}

// coreAsym returns the effective asymmetry multiplier for core i,
// treating a zero (or absent) entry as 1.
func coreAsym(p *Params, i int) float64 {
	if i >= len(p.CoreAsym) || p.CoreAsym[i] == 0 {
		return 1
	}
	return p.CoreAsym[i]
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// FanSpec is the data of a platform's stock fan policy: the thresholds and
// duty steps of the speed ladder. A platform descriptor carries a nil
// FanSpec when the device is fanless (phones, fanless tablets).
type FanSpec struct {
	OnTemp    float64 // °C, fan steps to LowSpeed
	MidTemp   float64 // °C, fan steps to MidSpeed
	HighTemp  float64 // °C, 100% speed
	IdleSpeed float64 // always-on floor duty
	LowSpeed  float64 // duty at the first threshold
	MidSpeed  float64 // duty at the second threshold
	Hyst      float64 // °C of hysteresis when stepping back down
}

// DefaultFanSpec returns the stock Odroid-XU+E ladder: 57/63/68 °C.
func DefaultFanSpec() FanSpec {
	return FanSpec{
		OnTemp: 57, MidTemp: 63, HighTemp: 68,
		IdleSpeed: 0.30, LowSpeed: 0.50, MidSpeed: 0.75,
		Hyst: 3,
	}
}

// FanController reproduces a stock fan policy (§6.2 for the Odroid-XU+E):
// the fan idles at a low duty whenever the board is powered (the stock fan
// never fully stops), activates when the maximum core temperature exceeds
// OnTemp, steps to MidSpeed above MidTemp, and to 100% above HighTemp.
// Hysteresis prevents chattering exactly at a threshold. The always-spinning
// idle duty is what makes "avoiding the fan, even if it is rarely active"
// worth ~3% platform power on low-activity workloads (§6.3.3).
type FanController struct {
	FanSpec

	speed float64
}

// NewFanController returns the stock Odroid thresholds: 57/63/68 °C.
func NewFanController() *FanController {
	return NewFanControllerFor(DefaultFanSpec())
}

// NewFanControllerFor returns a controller running the given ladder.
func NewFanControllerFor(spec FanSpec) *FanController {
	return &FanController{FanSpec: spec}
}

// Update advances the controller with the current max core temperature and
// returns the commanded fan speed fraction.
func (f *FanController) Update(maxCoreTemp float64) float64 {
	switch {
	case maxCoreTemp > f.HighTemp:
		f.speed = 1.0
	case maxCoreTemp > f.MidTemp:
		if f.speed < f.MidSpeed || maxCoreTemp < f.HighTemp-f.Hyst {
			f.speed = f.MidSpeed
		}
	case maxCoreTemp > f.OnTemp:
		if f.speed < f.LowSpeed || maxCoreTemp < f.MidTemp-f.Hyst {
			f.speed = f.LowSpeed
		}
	case maxCoreTemp < f.OnTemp-f.Hyst:
		f.speed = f.IdleSpeed
	default:
		if f.speed < f.IdleSpeed {
			f.speed = f.IdleSpeed
		}
	}
	return f.speed
}

// Speed returns the current fan speed fraction.
func (f *FanController) Speed() float64 { return f.speed }

// Validate sanity-checks the parameter set: positive capacitances and
// conductances, in-range asymmetry, and a well-formed symmetric adjacency.
func (p Params) Validate() error {
	if p.NumCores < 0 {
		return fmt.Errorf("thermal: NumCores %d negative", p.NumCores)
	}
	n := p.Cores()
	if p.CCore <= 0 || p.CBoard <= 0 {
		return fmt.Errorf("thermal: capacitances must be positive")
	}
	if p.GCoreBoard <= 0 || p.GBoardAmb <= 0 || p.GCoreCore < 0 || p.GFanMax < 0 || p.GFanCoreMax < 0 {
		return fmt.Errorf("thermal: conductances must be positive")
	}
	if len(p.CoreAsym) > n {
		return fmt.Errorf("thermal: CoreAsym has %d entries for %d core nodes", len(p.CoreAsym), n)
	}
	for i, a := range p.CoreAsym {
		if a < 0 {
			return fmt.Errorf("thermal: CoreAsym[%d] negative", i)
		}
	}
	nbr := p.neighbors()
	if len(nbr) != n {
		return fmt.Errorf("thermal: adjacency has %d rows for %d core nodes", len(nbr), n)
	}
	for i, row := range nbr {
		for _, j := range row {
			if j < 0 || j >= n {
				return fmt.Errorf("thermal: neighbor %d of node %d out of range", j, i)
			}
			if j == i {
				return fmt.Errorf("thermal: node %d lists itself as a neighbor", i)
			}
			if !contains(nbr[j], i) {
				return fmt.Errorf("thermal: adjacency asymmetric: %d->%d has no back edge", i, j)
			}
		}
	}
	return nil
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// StabilityEigenvalues returns the eigenvalues of the continuous-time RC
// system matrix A_c = -C^{-1/2} G C^{1/2}... computed in the symmetrized
// coordinate S = C^{-1/2} G C^{-1/2} (similar to C^{-1}G, so the spectra
// match). The network is passively stable — every thermal transient decays —
// iff all returned values are strictly negative. Fan speed is taken as 0
// (the weakest cooling; extra fan conductance only moves eigenvalues
// further left). Descriptor validation and the property tests gate on this.
func (p Params) StabilityEigenvalues() []float64 {
	n := p.Cores()
	dim := n + 1
	// Conductance matrix G (dim x dim): rows/cols 0..n-1 are cores, n is the
	// board node. Off-diagonals are -g_ij, diagonals the sum of incident
	// conductances (core-board, core-core, board-ambient grounds the system).
	G := make([][]float64, dim)
	for i := range G {
		G[i] = make([]float64, dim)
	}
	nbr := p.neighbors()
	for i := 0; i < n; i++ {
		gcb := p.GCoreBoard * coreAsym(&p, i)
		G[i][i] += gcb
		G[i][dim-1] -= gcb
		G[dim-1][i] -= gcb
		G[dim-1][dim-1] += gcb
		for _, j := range nbr[i] {
			G[i][i] += p.GCoreCore
			G[i][j] -= p.GCoreCore
		}
	}
	G[dim-1][dim-1] += p.GBoardAmb
	// Symmetrize with the capacitances: S = C^{-1/2} G C^{-1/2}.
	cap := func(i int) float64 {
		if i == dim-1 {
			return p.CBoard
		}
		return p.CCore
	}
	for i := 0; i < dim; i++ {
		for j := 0; j < dim; j++ {
			G[i][j] /= math.Sqrt(cap(i)) * math.Sqrt(cap(j))
		}
	}
	eigs := jacobiEigenvalues(G)
	for i := range eigs {
		eigs[i] = -eigs[i]
	}
	return eigs
}

// jacobiEigenvalues computes the eigenvalues of a symmetric matrix by the
// classical Jacobi rotation method (the matrix is tiny: N+1 nodes).
func jacobiEigenvalues(a [][]float64) []float64 {
	n := len(a)
	// Work on a copy.
	m := make([][]float64, n)
	for i := range m {
		m[i] = append([]float64(nil), a[i]...)
	}
	for sweep := 0; sweep < 100; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += m[i][j] * m[i][j]
			}
		}
		if off < 1e-24 {
			break
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if math.Abs(m[i][j]) < 1e-18 {
					continue
				}
				theta := (m[j][j] - m[i][i]) / (2 * m[i][j])
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				for k := 0; k < n; k++ {
					mik, mjk := m[i][k], m[j][k]
					m[i][k] = c*mik - s*mjk
					m[j][k] = s*mik + c*mjk
				}
				for k := 0; k < n; k++ {
					mki, mkj := m[k][i], m[k][j]
					m[k][i] = c*mki - s*mkj
					m[k][j] = s*mki + c*mkj
				}
			}
		}
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = m[i][i]
	}
	return out
}
