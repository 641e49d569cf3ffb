package thermal

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func highLoadInput() Input {
	// 4 big cores at ~0.7 W each plus ~1.3 W of GPU/mem/board power:
	// the matrix-multiplication scenario of Figure 1.1.
	return Input{CorePower: []float64{0.7, 0.7, 0.7, 0.7}, BoardPower: 1.3}
}

func TestStartsAtAmbient(t *testing.T) {
	s := NewSim(DefaultParams())
	st := s.State()
	if st.Board != 30 || st.Core[0] != 30 {
		t.Fatalf("initial state = %+v, want ambient", st)
	}
}

func TestZeroPowerStaysAtAmbient(t *testing.T) {
	s := NewSim(DefaultParams())
	s.Step(100, Input{})
	st := s.State()
	for i, c := range st.Core {
		if math.Abs(c-30) > 1e-6 {
			t.Fatalf("core %d drifted to %v with zero power", i, c)
		}
	}
	if math.Abs(st.Board-30) > 1e-6 {
		t.Fatalf("board drifted to %v", st.Board)
	}
}

func TestHeatingMonotoneUnderConstantPower(t *testing.T) {
	s := NewSim(DefaultParams())
	in := highLoadInput()
	prev := s.State().MaxCore()
	for i := 0; i < 50; i++ {
		s.Step(1, in)
		cur := s.State().MaxCore()
		if cur < prev-1e-9 {
			t.Fatalf("temperature decreased at step %d under constant power", i)
		}
		prev = cur
	}
	if prev < 45 {
		t.Fatalf("after 50 s of high load, max core = %.1f C, expected substantial heating", prev)
	}
}

func TestNoFanExceeds85C(t *testing.T) {
	// Figure 1.1: without a fan, the hotspots blow past 85 °C.
	s := NewSim(DefaultParams())
	st := s.SteadyState(highLoadInput())
	if st.MaxCore() < 85 {
		t.Fatalf("no-fan steady state = %.1f C, want > 85 (Figure 1.1)", st.MaxCore())
	}
}

func TestFullFanHoldsBelow70C(t *testing.T) {
	// Figure 1.1: the fan keeps the same workload far below the no-fan
	// runaway. At 100% duty the quartic convection law is aggressive, so
	// the steady state lands well under the 63 °C constraint; the stock
	// controller only ever reaches 100% above 68 °C, so in closed loop the
	// trace oscillates below that.
	s := NewSim(DefaultParams())
	in := highLoadInput()
	noFan := s.SteadyState(in).MaxCore()
	in.FanSpeed = 1
	st := s.SteadyState(in)
	if st.MaxCore() > 63 {
		t.Fatalf("full-fan steady state = %.1f C, want < 63", st.MaxCore())
	}
	if noFan-st.MaxCore() < 20 {
		t.Fatalf("full fan removes only %.1f C, want > 20", noFan-st.MaxCore())
	}
}

func TestNoFanCrossesConstraintwithin100s(t *testing.T) {
	// Figures 6.3/6.4: without the fan the 63 °C constraint is violated
	// well within the benchmark run.
	s := NewSim(DefaultParams())
	// Warm start: device idling before the benchmark launches.
	s.SetState(State{Core: []float64{36, 36, 36, 36}, Board: 35})
	in := highLoadInput()
	crossed := -1.0
	for tm := 0.0; tm < 100; tm += 0.1 {
		s.Step(0.1, in)
		if s.State().MaxCore() > 63 {
			crossed = tm
			break
		}
	}
	if crossed < 0 {
		t.Fatal("63C never crossed in 100 s of high load without fan")
	}
	if crossed < 3 {
		t.Fatalf("63C crossed after only %.1f s; board mass too small", crossed)
	}
}

func TestCoreFasterThanBoard(t *testing.T) {
	// A power step moves the hotspots in seconds, the board in minutes
	// (what makes the PRBS swings of Figure 4.8 visible).
	s := NewSim(DefaultParams())
	in := highLoadInput()
	s.Step(5, in)
	st5 := s.State()
	coreRise := st5.MaxCore() - 30
	boardRise := st5.Board - 30
	if coreRise < 5 {
		t.Fatalf("core rise after 5 s = %.2f C, want fast response", coreRise)
	}
	if boardRise > coreRise/2 {
		t.Fatalf("board (%.2f) should lag cores (%.2f)", boardRise, coreRise)
	}
}

func TestHottestCoreTracksPowerImbalance(t *testing.T) {
	s := NewSim(DefaultParams())
	in := Input{CorePower: []float64{0.9, 0.5, 0.5, 0.5}, BoardPower: 1}
	s.Step(30, in)
	st := s.State()
	if st.Core[0] != st.MaxCore() {
		t.Fatalf("hottest core is not core 0: %v", st.Core)
	}
	// Inter-core coupling is strong on the tiny A15 cluster, so the
	// imbalance is modest but must clearly exceed sensor quantization.
	if st.Core[0]-st.Core[3] < 0.4 {
		t.Fatalf("imbalance too small: %v", st.Core)
	}
}

func TestNeighborCouplingSpreadsHeat(t *testing.T) {
	// Only core 0 dissipates; its grid neighbours (1, 2) must warm more
	// than the diagonal core (3).
	s := NewSim(DefaultParams())
	in := Input{CorePower: []float64{1, 0, 0, 0}}
	s.Step(20, in)
	st := s.State()
	if !(st.Core[1] > st.Core[3] && st.Core[2] > st.Core[3]) {
		t.Fatalf("coupling shape wrong: %v", st.Core)
	}
	if st.Core[0] <= st.Core[1] {
		t.Fatal("powered core must be hottest")
	}
}

func TestSymmetricNetworkKeepsCoresEqual(t *testing.T) {
	p := DefaultParams()
	p.CoreAsym = []float64{1, 1, 1, 1}
	s := NewSim(p)
	s.Step(40, highLoadInput())
	st := s.State()
	for i := 1; i < 4; i++ {
		if math.Abs(st.Core[i]-st.Core[0]) > 1e-9 {
			t.Fatalf("symmetric input produced asymmetric temps: %v", st.Core)
		}
	}
}

func TestDefaultAsymmetryBreaksDegeneracy(t *testing.T) {
	// The default network must NOT be perfectly symmetric: real dies have
	// floorplan asymmetry, and a symmetric network makes the 4-output
	// identification problem rank deficient (T0-T1 == T2-T3 exactly).
	s := NewSim(DefaultParams())
	s.Step(40, highLoadInput())
	st := s.State()
	spread := stMax(st.Core) - stMin(st.Core)
	if spread < 0.05 {
		t.Fatalf("core spread under symmetric load = %.3f C, want visible asymmetry", spread)
	}
	d1 := st.Core[0] - st.Core[1]
	d2 := st.Core[2] - st.Core[3]
	if math.Abs(d1-d2) < 1e-6 {
		t.Fatal("T0-T1 == T2-T3: network still degenerate")
	}
}

func stMax(c []float64) float64 {
	m := c[0]
	for _, v := range c[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

func stMin(c []float64) float64 {
	m := c[0]
	for _, v := range c[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

func TestStepZeroOrNegativeDtIsNoop(t *testing.T) {
	s := NewSim(DefaultParams())
	before := s.State()
	s.Step(0, highLoadInput())
	s.Step(-5, highLoadInput())
	if !statesEqual(s.State(), before) {
		t.Fatal("zero/negative dt must not change state")
	}
}

func TestStepLargeDtStable(t *testing.T) {
	// A huge dt must not blow up thanks to sub-stepping.
	s := NewSim(DefaultParams())
	s.Step(500, highLoadInput())
	st := s.State()
	if math.IsNaN(st.MaxCore()) || st.MaxCore() > 200 {
		t.Fatalf("integration unstable: %+v", st)
	}
}

func TestSteadyStatePreservesSimState(t *testing.T) {
	s := NewSim(DefaultParams())
	s.Step(10, highLoadInput())
	before := s.State()
	s.SteadyState(highLoadInput())
	if !statesEqual(s.State(), before) {
		t.Fatal("SteadyState must not mutate the simulator")
	}
}

func TestEnergyConservationAtEquilibrium(t *testing.T) {
	// At steady state, power in == power out to ambient.
	p := DefaultParams()
	s := NewSim(p)
	in := highLoadInput()
	st := s.SteadyState(in)
	totalIn := in.BoardPower
	for _, q := range in.CorePower {
		totalIn += q
	}
	out := p.GBoardAmb * (st.Board - p.Ambient)
	if math.Abs(totalIn-out)/totalIn > 0.01 {
		t.Fatalf("energy balance broken: in=%.3f out=%.3f", totalIn, out)
	}
}

func TestMaxCoreAndHottest(t *testing.T) {
	st := State{Core: []float64{50, 70, 60, 65}}
	if st.MaxCore() != 70 {
		t.Fatalf("MaxCore=%v", st.MaxCore())
	}
}

func TestFanControllerLadder(t *testing.T) {
	f := NewFanControllerFor(DefaultFanSpec())
	if f.Update(50) != f.IdleSpeed {
		t.Fatalf("fan at 50C = %v, want the always-on idle duty %v", f.speed, f.IdleSpeed)
	}
	if f.Update(58) != f.LowSpeed {
		t.Fatalf("fan at 58C = %v, want low speed", f.speed)
	}
	if f.Update(64) != f.MidSpeed {
		t.Fatalf("fan at 64C = %v, want mid speed", f.speed)
	}
	if f.Update(69) != 1.0 {
		t.Fatalf("fan at 69C = %v, want 100%%", f.speed)
	}
}

func TestFanControllerHysteresis(t *testing.T) {
	f := NewFanControllerFor(DefaultFanSpec())
	f.Update(69) // 100%
	// Dropping just under the high threshold keeps 100% (within hysteresis).
	if f.Update(67) != 1.0 {
		t.Fatalf("fan dropped too eagerly: %v", f.speed)
	}
	// Dropping well below steps down to the mid duty.
	if f.Update(64) != f.MidSpeed {
		t.Fatalf("fan at 64C after high = %v, want mid", f.speed)
	}
	if f.Update(61) != f.MidSpeed {
		t.Fatalf("hysteresis at 61C should hold mid, got %v", f.speed)
	}
	if f.Update(58) != f.LowSpeed {
		t.Fatalf("fan at 58C after mid = %v, want low", f.speed)
	}
	if f.Update(53) != f.IdleSpeed {
		t.Fatalf("fan at 53C = %v, want the idle duty", f.speed)
	}
}

func TestParamsValidate(t *testing.T) {
	p := DefaultParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := p
	bad.CCore = 0
	if bad.Validate() == nil {
		t.Fatal("zero capacitance must fail validation")
	}
	bad = p
	bad.GBoardAmb = -1
	if bad.Validate() == nil {
		t.Fatal("negative conductance must fail validation")
	}
}

// Property: more fan always means cooler steady state.
func TestPropertyFanMonotone(t *testing.T) {
	s := NewSim(DefaultParams())
	in := highLoadInput()
	prev := math.Inf(1)
	for _, speed := range []float64{0, 0.3, 0.5, 1.0} {
		in.FanSpeed = speed
		st := s.SteadyState(in)
		if st.MaxCore() >= prev {
			t.Fatalf("fan speed %v did not cool below %v", speed, prev)
		}
		prev = st.MaxCore()
	}
}

// Property: steady-state temperature is monotone in injected power.
func TestPropertyPowerMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSim(DefaultParams())
		p1 := rng.Float64() * 0.8
		p2 := p1 + 0.05 + rng.Float64()*0.5
		in1 := Input{CorePower: []float64{p1, p1, p1, p1}, BoardPower: 1}
		in2 := Input{CorePower: []float64{p2, p2, p2, p2}, BoardPower: 1}
		return s.SteadyState(in2).MaxCore() > s.SteadyState(in1).MaxCore()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: the system is linear in the input around ambient —
// superposition holds for temperature rises.
func TestPropertySuperposition(t *testing.T) {
	s := NewSim(DefaultParams())
	inA := Input{CorePower: []float64{0.5, 0, 0, 0}}
	inB := Input{CorePower: []float64{0, 0.3, 0, 0}, BoardPower: 0.7}
	inAB := Input{CorePower: []float64{0.5, 0.3, 0, 0}, BoardPower: 0.7}
	a := s.SteadyState(inA)
	b := s.SteadyState(inB)
	ab := s.SteadyState(inAB)
	amb := DefaultParams().Ambient
	for i := 0; i < 4; i++ {
		sum := (a.Core[i] - amb) + (b.Core[i] - amb)
		if math.Abs(sum-(ab.Core[i]-amb)) > 0.05 {
			t.Fatalf("superposition broken on core %d: %v vs %v", i, sum, ab.Core[i]-amb)
		}
	}
}

func statesEqual(a, b State) bool {
	if a.Board != b.Board || len(a.Core) != len(b.Core) {
		return false
	}
	for i := range a.Core {
		if a.Core[i] != b.Core[i] {
			return false
		}
	}
	return true
}

func TestGridNeighbors(t *testing.T) {
	want4 := [][]int{{1, 2}, {0, 3}, {0, 3}, {1, 2}}
	got4 := GridNeighbors(4)
	for i := range want4 {
		if len(got4[i]) != len(want4[i]) {
			t.Fatalf("node %d neighbors = %v, want %v", i, got4[i], want4[i])
		}
		for j := range want4[i] {
			if got4[i][j] != want4[i][j] {
				t.Fatalf("node %d neighbors = %v, want %v (paper floorplan)", i, got4[i], want4[i])
			}
		}
	}
	// 8 nodes: a 2x4 grid, symmetric adjacency, interior nodes have 3 edges.
	p := Params{NumCores: 8, CCore: 0.5, CBoard: 5, GCoreBoard: 0.08, GCoreCore: 0.3, GBoardAmb: 0.07}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	got8 := GridNeighbors(8)
	if len(got8[2]) != 3 || len(got8[0]) != 2 {
		t.Fatalf("8-node grid degrees wrong: %v", got8)
	}
}

func TestStabilityEigenvaluesNegative(t *testing.T) {
	for _, p := range []Params{DefaultParams(), {NumCores: 8, CCore: 0.45, CBoard: 7.5, GCoreBoard: 0.075, GCoreCore: 0.28, GBoardAmb: 0.085}} {
		for _, ev := range p.StabilityEigenvalues() {
			if ev >= 0 {
				t.Fatalf("RC eigenvalue %g >= 0 for %+v", ev, p)
			}
		}
	}
}

func TestFanlessSpecNoFanEffect(t *testing.T) {
	p := DefaultParams()
	p.GFanMax, p.GFanCoreMax = 0, 0
	s := NewSim(p)
	in := highLoadInput()
	noFan := s.SteadyState(in).MaxCore()
	in.FanSpeed = 1
	if got := s.SteadyState(in).MaxCore(); got != noFan {
		t.Fatalf("fanless network cooled by fan speed: %v vs %v", got, noFan)
	}
}
