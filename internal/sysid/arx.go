package sysid

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/mat"
)

// NumStates is the default thermal model order: the four big-core hotspots
// of the paper platform (§4.2). Other platforms carry one state per
// sensor-bearing core; Dataset.States and ThermalModel.States() hold the
// effective order.
const NumStates = 4

// NumInputs is the number of power inputs: big, little, GPU, mem (Eq. 5.3).
// The P-vector layout is canonical across platforms; absent domains have
// zero power and an unexcited (zero) B column.
const NumInputs = 4

// Dataset is one identification experiment: synchronized temperature and
// power time series sampled every Ts seconds at a known ambient.
type Dataset struct {
	Ts      float64     // sampling period, seconds
	Ambient float64     // °C; temperatures are modelled relative to this
	States  int         // hotspot sensor count (0 = NumStates)
	Temps   [][]float64 // N samples of the hotspot temperatures (°C)
	Powers  [][]float64 // N samples of the 4 domain powers (W)
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Temps) }

// NumStates returns the dataset's sensor-channel count.
func (d *Dataset) NumStates() int {
	if d.States > 0 {
		return d.States
	}
	return NumStates
}

// Append adds one synchronized sample. Both slices are copied, so the
// caller may reuse its buffers.
func (d *Dataset) Append(temps []float64, powers []float64) {
	d.Temps = append(d.Temps, append([]float64(nil), temps...))
	d.Powers = append(d.Powers, append([]float64(nil), powers...))
}

// validate checks shape invariants.
func (d *Dataset) validate() error {
	if d.Ts <= 0 {
		return errors.New("sysid: dataset Ts must be positive")
	}
	if len(d.Temps) != len(d.Powers) {
		return errors.New("sysid: temperature/power sample counts differ")
	}
	if len(d.Temps) < 2 {
		return errors.New("sysid: need at least two samples")
	}
	ns := d.NumStates()
	for i := range d.Temps {
		if len(d.Temps[i]) != ns || len(d.Powers[i]) != NumInputs {
			return fmt.Errorf("sysid: sample %d has wrong width", i)
		}
	}
	return nil
}

// ThermalModel is the identified discrete state-space model of Eq. 4.4:
//
//	T[k+1] = A T[k] + B P[k]
//
// with T expressed RELATIVE TO AMBIENT (the affine-free form of Eq. 4.4 is
// exact in that coordinate; see DESIGN.md §5). All public methods take and
// return absolute °C.
// A fitted model is safe for concurrent use by multiple goroutines: A and B
// are never mutated after the fit, and the lazily filled HorizonGains cache
// is guarded by an internal mutex (the campaign engine shares one model
// across its whole worker pool).
type ThermalModel struct {
	A       *mat.Mat // n x n (n = model order, one state per hotspot)
	B       *mat.Mat // n x NumInputs
	Ts      float64  // seconds
	Ambient float64  // °C
	// Platform names the platform profile the model was identified on
	// ("" = unknown, e.g. hand-built test models). sim.Run refuses to
	// drive a platform with a model stamped for a different one — two
	// profiles can share a model order but never share silicon constants.
	Platform string

	mu     sync.Mutex          // guards gains and stable
	gains  map[int][2]*mat.Mat // HorizonGains cache, keyed by n
	stable *bool               // cached Stable() (A is immutable after the fit)
}

// States returns the model order (the platform's hotspot-sensor count).
func (m *ThermalModel) States() int { return m.A.Rows }

// Stable reports whether the identified A matrix is (estimated) Schur
// stable, i.e. its spectral radius is below one. Identified thermal models
// must be stable; an unstable fit indicates a bad experiment. The estimate
// is cached: A never changes after the fit, and every DTPM controller
// build re-checks it (one power iteration per campaign cell would
// otherwise dominate the controller's setup cost).
func (m *ThermalModel) Stable() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stable == nil {
		st := mat.DominantEigenvalue(m.A, 200) < 1.0
		m.stable = &st
	}
	return *m.stable
}

// Step predicts the next-interval temperatures (°C) from the current
// temperatures (°C) and the domain powers held over the interval.
func (m *ThermalModel) Step(tempC, powers []float64) []float64 {
	ns := m.States()
	dt := make([]float64, ns)
	for i := range dt {
		dt[i] = tempC[i] - m.Ambient
	}
	next := mat.AddVec(m.A.MulVec(dt), m.B.MulVec(powers))
	for i := range next {
		next[i] += m.Ambient
	}
	return next
}

// Predict implements Equation 4.5: the temperature n steps ahead given the
// power trajectory P[k], P[k+1], ..., P[k+n-1]. When the trajectory is
// shorter than n, the last entry is held (the DTPM algorithm predicts under
// "the current decision persists").
func (m *ThermalModel) Predict(tempC []float64, powerTraj [][]float64, n int) []float64 {
	cur := make([]float64, m.States())
	copy(cur, tempC)
	for i := 0; i < n; i++ {
		p := powerTraj[len(powerTraj)-1]
		if i < len(powerTraj) {
			p = powerTraj[i]
		}
		cur = m.Step(cur, p)
	}
	return cur
}

// PredictConst predicts n steps ahead with constant power, the common case
// in the DTPM control loop (Figure 5.1).
func (m *ThermalModel) PredictConst(tempC, powers []float64, n int) []float64 {
	return m.Predict(tempC, [][]float64{powers}, n)
}

// Predictor binds a thermal model to preallocated scratch vectors, making
// repeated constant-power predictions allocation-free. A fitted model is
// shared read-only across every concurrent simulation cell; each cell owns
// its Predictor (a Predictor is NOT safe for concurrent use).
type Predictor struct {
	m      *ThermalModel
	dt, bp []float64
}

// NewPredictor returns a predictor with scratch sized to the model order.
func (m *ThermalModel) NewPredictor() *Predictor {
	ns := m.States()
	flat := make([]float64, 2*ns)
	return &Predictor{
		m:  m,
		dt: flat[0:ns:ns],
		bp: flat[ns : 2*ns : 2*ns],
	}
}

// PredictConstInto is the allocation-free n-step constant-power prediction:
// it writes into dst (length States()) and returns dst. dst may alias
// tempC. The arithmetic replays Step's exact operation order —
// relative-to-ambient conversion every step, each row of A·dT summed in
// MulVec's column order, then + B·P, then + Ambient — so the result is
// bit-identical to PredictConst. This is the DTPM control loop's hot path:
// it runs twice per 100 ms interval in every simulation cell, so it must
// not allocate.
func (p *Predictor) PredictConstInto(dst, tempC, powers []float64, n int) []float64 {
	m := p.m
	ns := m.States()
	if len(dst) != ns || len(tempC) < ns {
		panic("sysid: PredictConstInto dst/tempC length")
	}
	// B·P is constant over the horizon; compute it once in MulVec order.
	bp := m.B.MulVecInto(p.bp, powers)
	// Order 4 has its own body: with predictRows serving it too, the
	// fleet-compute benchmark (¾ of its cells are 4-state) ran ~16%
	// slower (measurements in docs/benchmarks.md).
	if ns == 4 {
		predict4(dst, tempC, bp, m.A.Data, m.Ambient, n)
		return dst
	}
	copy(dst, tempC[:ns])
	predictRows(dst, p.dt, bp, m.A.Data, m.Ambient, n)
	return dst
}

// predict4 is the n-step prediction of a 4-state model (the Exynos 5410
// and fanless-phone platforms) with the state and A held in registers.
// Each row omits MulVec's leading 0.0 +: that can only flip the sign of a
// zero partial sum, and adding bp — MulVec output, so never -0 — erases
// the sign, leaving the result bit-identical.
func predict4(dst, tempC, bp, a []float64, amb float64, n int) {
	a, bp, tempC = a[:16], bp[:4], tempC[:4]
	a00, a01, a02, a03 := a[0], a[1], a[2], a[3]
	a10, a11, a12, a13 := a[4], a[5], a[6], a[7]
	a20, a21, a22, a23 := a[8], a[9], a[10], a[11]
	a30, a31, a32, a33 := a[12], a[13], a[14], a[15]
	b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
	c0, c1, c2, c3 := tempC[0], tempC[1], tempC[2], tempC[3]
	for k := 0; k < n; k++ {
		d0, d1, d2, d3 := c0-amb, c1-amb, c2-amb, c3-amb
		c0 = a00*d0 + a01*d1 + a02*d2 + a03*d3 + b0 + amb
		c1 = a10*d0 + a11*d1 + a12*d2 + a13*d3 + b1 + amb
		c2 = a20*d0 + a21*d1 + a22*d2 + a23*d3 + b2 + amb
		c3 = a30*d0 + a31*d1 + a32*d2 + a33*d3 + b3 + amb
	}
	dst = dst[:4]
	dst[0], dst[1], dst[2], dst[3] = c0, c1, c2, c3
}

// predictRows is the n-step prediction of any model order, advancing cur
// in place. Rows of A go in blocks of four independent accumulators (the
// j order within each row is MulVec's), then a scalar tail.
func predictRows(cur, dt, bp, a []float64, amb float64, n int) {
	ns := len(cur)
	dt, bp = dt[:ns], bp[:ns]
	for k := 0; k < n; k++ {
		for j, c := range cur {
			dt[j] = c - amb
		}
		i := 0
		for ; i+4 <= ns; i += 4 {
			r0 := a[i*ns:][:ns]
			r1 := a[(i+1)*ns:][:ns]
			r2 := a[(i+2)*ns:][:ns]
			r3 := a[(i+3)*ns:][:ns]
			var s0, s1, s2, s3 float64
			for j, d := range dt {
				s0 += r0[j] * d
				s1 += r1[j] * d
				s2 += r2[j] * d
				s3 += r3[j] * d
			}
			cur[i] = s0 + bp[i] + amb
			cur[i+1] = s1 + bp[i+1] + amb
			cur[i+2] = s2 + bp[i+2] + amb
			cur[i+3] = s3 + bp[i+3] + amb
		}
		for ; i < ns; i++ {
			row := a[i*ns:][:ns]
			s := 0.0
			for j, d := range dt {
				s += row[j] * d
			}
			cur[i] = s + bp[i] + amb
		}
	}
}

// HorizonGains returns the n-step form of Equation 4.5 under constant power,
//
//	T[k+n] = A^n T[k] + (Σ_{i=0}^{n-1} A^i B) P,
//
// i.e. An = A^n and Bn = Σ A^i·B. The DTPM budget computation uses a row of
// these matrices so that holding the budgeted power for the whole horizon —
// not only one step — lands exactly on the constraint (the n-step
// generalization of Eq. 5.5). Results are cached per horizon.
func (m *ThermalModel) HorizonGains(n int) (an, bn *mat.Mat) {
	if n < 1 {
		n = 1
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.gains == nil {
		m.gains = make(map[int][2]*mat.Mat)
	}
	if g, ok := m.gains[n]; ok {
		return g[0], g[1]
	}
	an = mat.Identity(m.States())
	bn = mat.New(m.States(), NumInputs)
	for i := 0; i < n; i++ {
		bn = bn.Add(an.Mul(m.B))
		an = an.Mul(m.A)
	}
	m.gains[n] = [2]*mat.Mat{an, bn}
	return an, bn
}

// minExcitation is the minimum peak-to-peak swing (W) a power input needs
// before its B column is identifiable from a dataset. Inputs below it are
// excluded from the regression (their column stays zero) — this is why the
// paper runs one dedicated experiment per resource (§4.2.1): "Individual
// test signals for different power resources are applied and corresponding
// parameters are modeled."
const minExcitation = 0.05

// excitedInputs returns the indices of power inputs whose swing exceeds
// minExcitation in the dataset.
func excitedInputs(d *Dataset) []int {
	var out []int
	for j := 0; j < NumInputs; j++ {
		lo, hi := d.Powers[0][j], d.Powers[0][j]
		for k := range d.Powers {
			v := d.Powers[k][j]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if hi-lo >= minExcitation {
			out = append(out, j)
		}
	}
	return out
}

// Identify fits A and B jointly by per-row least squares over the whole
// dataset: for each hotspot i,
//
//	dT_i[k+1] = a_i . dT[k] + b_i . P[k]
//
// where dT = T - ambient. Power inputs that are not excited in the dataset
// (e.g. a power-gated cluster) are excluded from the regression and keep a
// zero column in B. This is the single-experiment variant; the paper's
// staged per-resource procedure is IdentifyStaged.
func Identify(d *Dataset) (*ThermalModel, error) {
	if err := d.validate(); err != nil {
		return nil, err
	}
	excited := excitedInputs(d)
	if len(excited) == 0 {
		return nil, errors.New("sysid: no power input is excited in the dataset")
	}
	ns := d.NumStates()
	n := d.Len() - 1
	cols := ns + len(excited)
	if n < cols {
		return nil, fmt.Errorf("sysid: %d transitions insufficient for %d parameters per row", n, cols)
	}
	reg := mat.New(n, cols)
	for k := 0; k < n; k++ {
		for j := 0; j < ns; j++ {
			reg.Set(k, j, d.Temps[k][j]-d.Ambient)
		}
		for c, j := range excited {
			reg.Set(k, ns+c, d.Powers[k][j])
		}
	}
	model := &ThermalModel{
		A:       mat.New(ns, ns),
		B:       mat.New(ns, NumInputs),
		Ts:      d.Ts,
		Ambient: d.Ambient,
	}
	target := make([]float64, n)
	for i := 0; i < ns; i++ {
		for k := 0; k < n; k++ {
			target[k] = d.Temps[k+1][i] - d.Ambient
		}
		coef, err := mat.LeastSquares(reg, target)
		if err != nil {
			return nil, fmt.Errorf("sysid: row %d: %w", i, err)
		}
		for j := 0; j < ns; j++ {
			model.A.Set(i, j, coef[j])
		}
		for c, j := range excited {
			model.B.Set(i, j, coef[ns+c])
		}
	}
	return model, nil
}

// IdentifyStaged reproduces the paper's procedure (§4.2.1): "Individual test
// signals for different power resources are applied and corresponding
// parameters are modeled." The first dataset must excite the big cluster
// (the dominant input); it determines A and B's big column. Each subsequent
// dataset excites one additional resource (given by its index in order) and
// fits only that B column against the residual unexplained by the already
// identified parameters.
//
// datasets[r] excites resource r (0 = big, 1 = little, 2 = GPU, 3 = mem).
// Nil entries are allowed for resources that were not characterized; their
// B columns stay zero.
func IdentifyStaged(datasets []*Dataset) (*ThermalModel, error) {
	if len(datasets) == 0 || datasets[0] == nil {
		return nil, errors.New("sysid: staged identification requires the big-cluster dataset first")
	}
	base, err := Identify(datasets[0])
	if err != nil {
		return nil, fmt.Errorf("sysid: stage 0: %w", err)
	}
	// The big-cluster experiment holds other sources near-constant; their
	// small steady contribution leaks into the fitted columns. Keep the big
	// column, re-fit the rest from the dedicated experiments.
	for r := 1; r < NumInputs && r < len(datasets); r++ {
		d := datasets[r]
		if d == nil {
			continue
		}
		if err := d.validate(); err != nil {
			return nil, fmt.Errorf("sysid: stage %d: %w", r, err)
		}
		n := d.Len() - 1
		ns := base.States()
		if d.NumStates() != ns {
			return nil, fmt.Errorf("sysid: stage %d dataset has %d states, base model %d", r, d.NumStates(), ns)
		}
		for i := 0; i < ns; i++ {
			// Residual after A and the already-known columns (all except r).
			num, den := 0.0, 0.0
			for k := 0; k < n; k++ {
				pred := 0.0
				for j := 0; j < ns; j++ {
					pred += base.A.At(i, j) * (d.Temps[k][j] - d.Ambient)
				}
				for j := 0; j < NumInputs; j++ {
					if j == r {
						continue
					}
					pred += base.B.At(i, j) * d.Powers[k][j]
				}
				resid := (d.Temps[k+1][i] - d.Ambient) - pred
				x := d.Powers[k][r]
				num += x * resid
				den += x * x
			}
			if den > 0 {
				base.B.Set(i, r, num/den)
			}
		}
	}
	return base, nil
}

// ValidationError replays a dataset through the model predicting `horizon`
// steps ahead at every sample and returns (meanPct, maxPct, maxAbsC): the
// metrics of Figures 4.9, 4.10 and 6.2. Prediction at sample k uses the
// MEASURED temperatures at k and the recorded power trajectory over the
// horizon, exactly as the kernel validation does (§6.3.1).
func ValidationError(m *ThermalModel, d *Dataset, horizon int) (meanPct, maxPct, maxAbsC float64) {
	if horizon < 1 {
		horizon = 1
	}
	n := d.Len()
	count := 0
	var sumPct float64
	for k := 0; k+horizon < n; k++ {
		pred := m.Predict(d.Temps[k], d.Powers[k:k+horizon], horizon)
		for i := 0; i < m.States(); i++ {
			meas := d.Temps[k+horizon][i]
			if meas <= 0 {
				continue
			}
			abs := pred[i] - meas
			if abs < 0 {
				abs = -abs
			}
			pct := 100 * abs / meas
			sumPct += pct
			count++
			if pct > maxPct {
				maxPct = pct
			}
			if abs > maxAbsC {
				maxAbsC = abs
			}
		}
	}
	if count > 0 {
		meanPct = sumPct / float64(count)
	}
	return meanPct, maxPct, maxAbsC
}
