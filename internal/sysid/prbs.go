// Package sysid implements the paper's modeling methodology (§4):
//
//   - PRBS excitation signals for system identification (§4.2.1, Fig. 4.8),
//   - the temperature-furnace procedure for leakage characterization
//     (§4.1.1, Figures 4.1-4.3),
//   - Gauss-Newton fitting of the leakage law's (c1, c2, I_gate) parameters
//     (Eq. 4.2),
//   - least-squares ARX identification of the thermal state-space model
//     T[k+1] = A_s T[k] + B_s P[k] (Eq. 4.4), both jointly and staged
//     per power resource as the paper describes,
//   - the resulting ThermalModel with n-step prediction (Eq. 4.5).
//
// The paper used MATLAB's System Identification Toolbox for the last two
// steps; this package solves the same estimation problems with the stdlib.
package sysid

// PRBS is a maximal-length pseudo-random binary sequence generator built on
// a 15-bit Fibonacci LFSR (period 2^15-1). The paper oscillates each power
// source between its minimum and maximum with a PRBS "generated to cover a
// frequency spectrum much broader than that excited by an arbitrary
// application" (§4.2.1).
type PRBS struct {
	reg uint16
}

// NewPRBS returns a generator with the given non-zero seed (a zero seed is
// replaced by 1, since the all-zero LFSR state is absorbing).
func NewPRBS(seed uint16) *PRBS {
	s := seed & 0x7FFF
	if s == 0 {
		s = 1
	}
	return &PRBS{reg: s}
}

// Next advances the LFSR one step and returns the output bit.
// Taps 15 and 14 give a maximal-length sequence.
func (p *PRBS) Next() bool {
	bit := ((p.reg >> 14) ^ (p.reg >> 13)) & 1
	p.reg = (p.reg<<1 | bit) & 0x7FFF
	return bit == 1
}

// HoldSequence returns a bit waveform of length n where each PRBS bit is
// held for `hold` consecutive samples — the chip-rate shaping that sets the
// excitation bandwidth relative to the 100 ms sampling period.
func (p *PRBS) HoldSequence(n, hold int) []bool {
	if hold < 1 {
		hold = 1
	}
	out := make([]bool, n)
	var cur bool
	for i := 0; i < n; i++ {
		if i%hold == 0 {
			cur = p.Next()
		}
		out[i] = cur
	}
	return out
}
