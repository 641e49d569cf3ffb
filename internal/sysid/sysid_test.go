package sysid

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/sensor"
)

func TestPRBSPeriodAndBalance(t *testing.T) {
	p := NewPRBS(1)
	seq := p.HoldSequence(32767, 1)
	ones := 0
	for _, b := range seq {
		if b {
			ones++
		}
	}
	// Maximal-length 15-bit LFSR: 16384 ones, 16383 zeros per period.
	if ones != 16384 {
		t.Fatalf("ones = %d, want 16384 (maximal-length property)", ones)
	}
	// Periodicity: the next 100 bits repeat the first 100.
	again := p.HoldSequence(100, 1)
	for i := range again {
		if again[i] != seq[i] {
			t.Fatalf("sequence not periodic at %d", i)
		}
	}
}

func TestPRBSZeroSeedHandled(t *testing.T) {
	p := NewPRBS(0)
	seq := p.HoldSequence(100, 1)
	any := false
	for _, b := range seq {
		if b {
			any = true
		}
	}
	if !any {
		t.Fatal("zero seed produced a stuck-at-zero sequence")
	}
}

func TestPRBSHoldSequence(t *testing.T) {
	p := NewPRBS(5)
	h := p.HoldSequence(30, 10)
	for i := 0; i < 10; i++ {
		if h[i] != h[0] || h[10+i] != h[10] || h[20+i] != h[20] {
			t.Fatal("hold blocks not constant")
		}
	}
	// hold < 1 treated as 1.
	if len(NewPRBS(5).HoldSequence(7, 0)) != 7 {
		t.Fatal("hold 0 should still emit n samples")
	}
}

func TestPRBSDeterministic(t *testing.T) {
	a := NewPRBS(0x123).HoldSequence(500, 1)
	b := NewPRBS(0x123).HoldSequence(500, 1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must reproduce the sequence")
		}
	}
}

// synthFurnace builds noise-free furnace samples from known ground truth.
func synthFurnace(gt *power.GroundTruth, pDyn float64, temps []float64, v float64) []FurnaceSample {
	var out []FurnaceSample
	for _, tc := range temps {
		out = append(out, FurnaceSample{
			TempC: tc,
			Power: pDyn + gt.Res[platform.Big].Leak.Power(tc, v),
			Volt:  v,
			FHz:   1.6e9,
		})
	}
	return out
}

func TestFitLeakageRecoversGroundTruth(t *testing.T) {
	gt := power.DefaultGroundTruth()
	temps := []float64{40, 50, 60, 70, 80}
	pDyn := 0.30
	samples := synthFurnace(gt, pDyn, temps, 1.25)
	fit, err := FitLeakage(samples, pDyn, 1.25)
	if err != nil {
		t.Fatal(err)
	}
	// The fitted law must reproduce leakage power within 2% across the sweep
	// (parameter values themselves can trade off; the curve is what matters).
	for _, tc := range []float64{40, 45, 55, 65, 75, 80} {
		want := gt.Res[platform.Big].Leak.Power(tc, 1.25)
		got := fit.Power(tc, 1.25)
		if math.Abs(got-want)/want > 0.02 {
			t.Fatalf("fitted leakage at %v C = %.4f, want %.4f", tc, got, want)
		}
	}
}

func TestFitLeakageErrors(t *testing.T) {
	if _, err := FitLeakage(nil, 0.1, 1.25); err == nil {
		t.Fatal("expected error for empty samples")
	}
	if _, _, err := FitAlphaC(nil, 1.25); err == nil {
		t.Fatal("expected error for empty alphaC fit")
	}
}

func TestFitAlphaCRecoversTruth(t *testing.T) {
	gt := power.DefaultGroundTruth()
	d := platform.BigDomain()
	trueAC := gt.Res[platform.Big].AlphaC * 0.45 // one core at 45% util
	vNom := 1.25
	leakRef := gt.Res[platform.Big].Leak.Power(42, vNom) // at the furnace temp
	var samples []FurnaceSample
	for _, opp := range d.OPPs {
		p := trueAC*opp.Volt*opp.Volt*opp.Freq.Hz() + leakRef*(opp.Volt/vNom)*(opp.Volt/vNom)
		samples = append(samples, FurnaceSample{TempC: 42, Power: p, Volt: opp.Volt, FHz: opp.Freq.Hz()})
	}
	ac, lr, err := FitAlphaC(samples, vNom)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ac-trueAC)/trueAC > 1e-6 {
		t.Fatalf("alphaC = %v, want %v", ac, trueAC)
	}
	if math.Abs(lr-leakRef)/leakRef > 1e-6 {
		t.Fatalf("leakRef = %v, want %v", lr, leakRef)
	}
}

func TestCharacterizeLeakageEndToEnd(t *testing.T) {
	// Full §4.1 procedure with noisy sensors: fitted curve within 5% of the
	// silicon's leakage across 40-80 °C (Figure 4.7's validation quality).
	rig := NewRig(11)
	fit, err := rig.CharacterizeLeakage()
	if err != nil {
		t.Fatal(err)
	}
	// Compare within the measured span: the device self-heats a few degrees
	// above each furnace setpoint, so samples cover roughly 47-87 °C; below
	// the span the fit extrapolates and the tolerance would not be fair.
	gt := rig.GT.Res[platform.Big].Leak
	for _, tc := range []float64{48, 55, 65, 75, 85} {
		want := gt.Power(tc, 1.25)
		got := fit.Power(tc, 1.25)
		if math.Abs(got-want)/want > 0.05 {
			t.Fatalf("fitted leakage at %v C: %.4f vs truth %.4f (>5%%)", tc, got, want)
		}
	}
}

func TestDatasetValidate(t *testing.T) {
	d := &Dataset{Ts: 0.1, Ambient: 30}
	if d.validate() == nil {
		t.Fatal("empty dataset must fail validation")
	}
	d.Append([]float64{40, 40, 40, 40}, []float64{1, 0, 0, 0})
	d.Append([]float64{41, 40, 40, 40}, []float64{1, 0, 0, 0})
	if err := d.validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Dataset{Ts: 0, Ambient: 30}
	bad.Append([]float64{1, 2, 3, 4}, []float64{1, 0, 0, 0})
	bad.Append([]float64{1, 2, 3, 4}, []float64{1, 0, 0, 0})
	if bad.validate() == nil {
		t.Fatal("Ts=0 must fail")
	}
}

// synthModel builds a known stable model for identification tests.
func synthModel() *ThermalModel {
	// Asymmetric on purpose: a perfectly symmetric model makes the
	// regression rank deficient (T0-T1 tracks T2-T3 exactly).
	a := mat.FromRows([][]float64{
		{0.90, 0.031, 0.029, 0.000},
		{0.033, 0.89, 0.000, 0.028},
		{0.027, 0.000, 0.91, 0.034},
		{0.000, 0.029, 0.031, 0.88},
	})
	b := mat.FromRows([][]float64{
		{0.60, 0.050, 0.040, 0.030},
		{0.55, 0.052, 0.041, 0.031},
		{0.50, 0.061, 0.052, 0.029},
		{0.45, 0.063, 0.049, 0.033},
	})
	return &ThermalModel{A: a, B: b, Ts: 0.1, Ambient: 30}
}

// simulateDataset rolls a known model forward under a random-ish power
// excitation to produce a perfectly model-consistent dataset.
func simulateDataset(m *ThermalModel, n int, seed uint16) *Dataset {
	ds := &Dataset{Ts: m.Ts, Ambient: m.Ambient}
	prbs := NewPRBS(seed)
	temps := []float64{m.Ambient, m.Ambient, m.Ambient, m.Ambient}
	for k := 0; k < n; k++ {
		var p [4]float64
		for j := range p {
			if prbs.Next() {
				p[j] = 0.5 + float64(j)*0.3
			} else {
				p[j] = 0.1
			}
		}
		ds.Append(temps, p[:])
		temps = m.Step(temps, p[:])
	}
	return ds
}

func TestIdentifyRecoversSynthModel(t *testing.T) {
	truth := synthModel()
	ds := simulateDataset(truth, 2000, 0x1AB)
	got, err := Identify(ds)
	if err != nil {
		t.Fatal(err)
	}
	if !got.A.Equal(truth.A, 1e-6) {
		t.Fatalf("A not recovered:\ngot\n%v\nwant\n%v", got.A, truth.A)
	}
	if !got.B.Equal(truth.B, 1e-6) {
		t.Fatalf("B not recovered:\ngot\n%v\nwant\n%v", got.B, truth.B)
	}
	if !got.Stable() {
		t.Fatal("identified model should be stable")
	}
}

func TestIdentifyInsufficientData(t *testing.T) {
	ds := &Dataset{Ts: 0.1, Ambient: 30}
	for i := 0; i < 5; i++ {
		ds.Append([]float64{40, 40, 40, 40}, []float64{1, 0, 0, 0})
	}
	if _, err := Identify(ds); err == nil {
		t.Fatal("expected error with fewer transitions than parameters")
	}
}

func TestThermalModelStepAndPredict(t *testing.T) {
	m := synthModel()
	temps := []float64{50, 48, 47, 46}
	p := []float64{2.0, 0.1, 0.2, 0.3}
	one := m.Step(temps, p)
	viaPredict := m.PredictConst(temps, p, 1)
	for i := range one {
		if math.Abs(one[i]-viaPredict[i]) > 1e-12 {
			t.Fatal("PredictConst(1) must equal Step")
		}
	}
	// Multi-step: iterating Step must equal Predict.
	it := append([]float64(nil), temps...)
	for k := 0; k < 10; k++ {
		it = m.Step(it, p)
	}
	ten := m.PredictConst(temps, p, 10)
	for i := range ten {
		if math.Abs(ten[i]-it[i]) > 1e-9 {
			t.Fatalf("Predict(10) mismatch: %v vs %v", ten, it)
		}
	}
}

// TestPredictConstIntoBitIdentical pins the hot-path contract: the
// allocation-free prediction must produce exactly the floats of the
// allocating form, at every horizon (the campaign determinism guarantee
// leans on this). Orders 4 and 8 are the fleet's platforms; 5 exercises
// the scalar tail after one block of four rows.
func TestPredictConstIntoBitIdentical(t *testing.T) {
	models := map[string]*ThermalModel{"synth4": synthModel()}
	for _, ns := range []int{4, 5, 8} {
		models[fmt.Sprintf("rand%d", ns)] = randomModel(rand.New(rand.NewSource(int64(ns))), ns)
	}
	// At ambient with signed-zero entries in A every product is ±0: the
	// case where dropping MulVec's leading 0.0 + could show.
	zero := randomModel(rand.New(rand.NewSource(9)), 4)
	for i := range zero.A.Data {
		zero.A.Data[i] = math.Copysign(0, float64(i%2)-0.5)
	}
	models["zeros4"] = zero
	for name, m := range models {
		ns := m.States()
		rng := rand.New(rand.NewSource(int64(ns)))
		temps := make([]float64, ns)
		for i := range temps {
			temps[i] = 40 + 20*rng.Float64()
		}
		if name == "zeros4" {
			for i := range temps {
				temps[i] = m.Ambient
			}
		}
		powers := []float64{3.1, 0.4, 0.9, 0.6}
		pr := m.NewPredictor()
		for _, n := range []int{0, 1, 2, 10, 50} {
			want := m.PredictConst(temps, powers, n)
			got := pr.PredictConstInto(make([]float64, ns), temps, powers, n)
			// dst may alias tempC.
			aliased := append([]float64(nil), temps...)
			pr.PredictConstInto(aliased, aliased, powers, n)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Errorf("%s n=%d state %d: PredictConstInto %v != PredictConst %v", name, n, i, got[i], want[i])
				}
				if math.Float64bits(aliased[i]) != math.Float64bits(want[i]) {
					t.Errorf("%s n=%d state %d: aliased PredictConstInto %v != PredictConst %v", name, n, i, aliased[i], want[i])
				}
			}
		}
		// The Predictor form is the hot-path contract: zero allocations.
		out := make([]float64, ns)
		if allocs := testing.AllocsPerRun(100, func() {
			pr.PredictConstInto(out, temps, powers, 10)
		}); allocs != 0 {
			t.Errorf("%s: Predictor.PredictConstInto allocates %.0f times per call, want 0", name, allocs)
		}
	}
}

// randomModel draws an order-ns model whose A has row sums below one in
// magnitude (so long horizons stay finite) and whose entries are exactly
// zero a quarter of the time.
func randomModel(rng *rand.Rand, ns int) *ThermalModel {
	draw := func(scale float64) float64 {
		if rng.Intn(4) == 0 {
			return 0
		}
		return scale * (2*rng.Float64() - 1)
	}
	a, b := mat.New(ns, ns), mat.New(ns, NumInputs)
	for i := range a.Data {
		a.Data[i] = draw(0.99 / float64(ns))
	}
	for i := range b.Data {
		b.Data[i] = draw(1)
	}
	return &ThermalModel{A: a, B: b, Ts: 0.1, Ambient: 45 * rng.Float64()}
}

// FuzzPredictConst checks the register-resident predictor against the
// allocating Step loop bit for bit, for random orders 1-9, random
// models, temperatures and powers, and horizons 0-60.
func FuzzPredictConst(f *testing.F) {
	for _, seed := range []int64{1, 4, 5, 8} {
		f.Add(seed, uint8(seed), uint8(10))
	}
	f.Add(int64(7), uint8(0), uint8(0))
	f.Add(int64(9), uint8(8), uint8(60))
	f.Fuzz(func(t *testing.T, seed int64, order, horizon uint8) {
		rng := rand.New(rand.NewSource(seed))
		ns, n := 1+int(order)%9, int(horizon)%61
		m := randomModel(rng, ns)
		temps := make([]float64, ns)
		for i := range temps {
			temps[i] = m.Ambient + 60*rng.Float64()
			if rng.Intn(4) == 0 {
				temps[i] = m.Ambient
			}
		}
		powers := make([]float64, NumInputs)
		for i := range powers {
			powers[i] = 5 * rng.Float64()
		}
		want := m.PredictConst(temps, powers, n)
		got := m.NewPredictor().PredictConstInto(make([]float64, ns), temps, powers, n)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("order %d n=%d state %d: PredictConstInto %v != PredictConst %v", ns, n, i, got[i], want[i])
			}
		}
	})
}

func TestPredictTrajectoryHolding(t *testing.T) {
	m := synthModel()
	temps := []float64{50, 50, 50, 50}
	short := [][]float64{{2, 0, 0, 0}}
	long := [][]float64{{2, 0, 0, 0}, {2, 0, 0, 0}, {2, 0, 0, 0}}
	a := m.Predict(temps, short, 3)
	b := m.Predict(temps, long, 3)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			t.Fatal("short trajectory must hold its last power vector")
		}
	}
}

func TestPredictConvergesToDCGain(t *testing.T) {
	// For constant power, prediction must converge to the DC equilibrium
	// ambient + (I-A)^-1 B P.
	m := synthModel()
	p := []float64{1.5, 0.2, 0.3, 0.2}
	far := m.PredictConst([]float64{30, 30, 30, 30}, p, 5000)
	ia := mat.Identity(4).Sub(m.A)
	inv, err := mat.Inverse(ia)
	if err != nil {
		t.Fatal(err)
	}
	want := inv.Mul(m.B).MulVec(p)
	for i := range far {
		if math.Abs(far[i]-(30+want[i])) > 1e-6 {
			t.Fatalf("DC gain mismatch on core %d: %v vs %v", i, far[i], 30+want[i])
		}
	}
}

func TestValidationErrorPerfectModel(t *testing.T) {
	truth := synthModel()
	ds := simulateDataset(truth, 500, 0x77)
	mean, max, absC := ValidationError(truth, ds, 10)
	if mean > 1e-9 || max > 1e-9 || absC > 1e-9 {
		t.Fatalf("perfect model should have zero error: %v %v %v", mean, max, absC)
	}
}

func TestCollectPRBSShapes(t *testing.T) {
	rig := NewRig(3)
	cfg := PRBSConfig{Resource: platform.Big, Duration: 30, HoldSec: 2, Seed: 9}
	ds, err := rig.CollectPRBS(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 300 {
		t.Fatalf("samples = %d, want 300", ds.Len())
	}
	// The big power must actually oscillate with a large swing (Fig. 4.8).
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, p := range ds.Powers {
		if p[0] < lo {
			lo = p[0]
		}
		if p[0] > hi {
			hi = p[0]
		}
	}
	if hi-lo < 1.0 {
		t.Fatalf("big-cluster PRBS swing = %.2f W, want > 1 W", hi-lo)
	}
	// Temperatures must respond.
	if ds.Temps[ds.Len()-1][0] <= ds.Temps[0][0] {
		t.Fatal("temperature did not rise during PRBS excitation")
	}
}

func TestCollectPRBSInvalidConfig(t *testing.T) {
	rig := NewRig(3)
	if _, err := rig.CollectPRBS(PRBSConfig{Resource: platform.Big}); err == nil {
		t.Fatal("zero duration must fail")
	}
	if _, err := rig.CollectPRBS(PRBSConfig{Resource: platform.Resource(9), Duration: 1, HoldSec: 1}); err == nil {
		t.Fatal("unknown resource must fail")
	}
}

func TestIdentifyStagedRequiresBigFirst(t *testing.T) {
	if _, err := IdentifyStaged(nil); err == nil {
		t.Fatal("expected error with no datasets")
	}
	if _, err := IdentifyStaged([]*Dataset{nil}); err == nil {
		t.Fatal("expected error with nil big dataset")
	}
}

func TestEndToEndIdentificationAccuracy(t *testing.T) {
	// The headline §4.2.2 result: identify from PRBS data with noisy
	// sensors, then validate 1-second-ahead predictions on a fresh
	// experiment. Average error must be < 3% and max < ~4% (Figure 6.2),
	// i.e. ~1 °C average.
	if testing.Short() {
		t.Skip("long identification run")
	}
	rig := NewRig(21)
	cfg := DefaultPRBSConfig(platform.Big)
	cfg.Duration = 600
	train, err := rig.CollectPRBS(cfg)
	if err != nil {
		t.Fatal(err)
	}
	model, err := Identify(train)
	if err != nil {
		t.Fatal(err)
	}
	if !model.Stable() {
		t.Fatal("identified model unstable")
	}
	// Fresh validation run with a different PRBS seed.
	cfg.Seed = 0x55A
	cfg.Duration = 300
	valid, err := rig.CollectPRBS(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mean, max, absC := ValidationError(model, valid, 10) // 1 s = 10 intervals
	if mean > 3.0 {
		t.Fatalf("mean 1s prediction error = %.2f%%, want < 3%% (§6.3.1)", mean)
	}
	if max > 10.0 {
		t.Fatalf("max 1s prediction error = %.2f%%, unreasonably high", max)
	}
	if absC > 4.0 {
		t.Fatalf("max abs error = %.2f C, want small", absC)
	}
	// Error grows with horizon but stays moderate at 5 s (Figure 4.10).
	mean5, _, _ := ValidationError(model, valid, 50)
	if mean5 < mean {
		t.Logf("note: 5s error (%.2f%%) below 1s error (%.2f%%)", mean5, mean)
	}
	if mean5 > 8 {
		t.Fatalf("5s prediction error = %.2f%%, want < ~7%% (Figure 4.10)", mean5)
	}
}

func TestCharacterizeThermalStagedEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("long identification run")
	}
	rig := NewRig(31)
	model, datasets, err := rig.CharacterizeThermal()
	if err != nil {
		t.Fatal(err)
	}
	if len(datasets) != NumInputs {
		t.Fatalf("datasets = %d", len(datasets))
	}
	if !model.Stable() {
		t.Fatal("staged model unstable")
	}
	// The big-cluster input must dominate the hotspot response.
	for i := 0; i < NumStates; i++ {
		if model.B.At(i, int(platform.Big)) <= 0 {
			t.Fatalf("B[%d][big] = %v, want positive", i, model.B.At(i, int(platform.Big)))
		}
	}
	// Validation on fresh big-cluster data.
	cfg := DefaultPRBSConfig(platform.Big)
	cfg.Seed = 0x111
	cfg.Duration = 200
	valid, err := rig.CollectPRBS(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mean, _, _ := ValidationError(model, valid, 10)
	if mean > 3.0 {
		t.Fatalf("staged model 1s error = %.2f%%, want < 3%%", mean)
	}
}

func TestNoiseMattersForIdentification(t *testing.T) {
	// Identification from ideal sensors should be at least as good as from
	// noisy sensors (sanity check that the noise path is actually wired).
	rigIdeal := NewRig(41)
	rigIdeal.Sensors = sensor.NewBank(sensor.IdealConfig(), 41)
	cfg := PRBSConfig{Resource: platform.Big, Duration: 150, HoldSec: 3, Seed: 5}
	dsIdeal, err := rigIdeal.CollectPRBS(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dsNoisy, err := NewRig(41).CollectPRBS(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Same experiment, different sensing: values must differ.
	same := true
	for k := 0; k < dsIdeal.Len(); k++ {
		if dsIdeal.Temps[k][0] != dsNoisy.Temps[k][0] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("noisy and ideal sensors returned identical data")
	}
}
