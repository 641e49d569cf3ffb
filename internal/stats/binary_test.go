package stats

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// specialFloats are the values a text codec tends to lose: NaN (with a
// non-default payload too), both infinities, negative zero, and the
// extremes of the float range.
var specialFloats = []float64{
	math.NaN(), math.Float64frombits(0x7ff8_0000_dead_beef), math.Inf(1), math.Inf(-1),
	math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// roundTripHistogram encodes h, decodes into a fresh histogram of the same
// shape, and checks bit-exact state, no leftover bytes, and that the
// re-encoding is identical.
func roundTripHistogram(t *testing.T, h *Histogram) {
	t.Helper()
	enc, err := h.AppendBinary([]byte("prefix"))
	if err != nil {
		t.Fatal(err)
	}
	enc = enc[len("prefix"):]
	got := &Histogram{Lo: h.Lo, Hi: h.Hi, Bins: make([]uint64, len(h.Bins))}
	got.Bins[0] = 99 // stale state a pooled histogram might carry
	rest, err := got.DecodeBinary(append(enc, 0xAB))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !bytes.Equal(rest, []byte{0xAB}) {
		t.Fatalf("decode consumed the wrong length: rest %x", rest)
	}
	if got.N != h.N || !sameBits(got.Lo, h.Lo) || !sameBits(got.Hi, h.Hi) {
		t.Fatalf("decoded N/Lo/Hi %d/%g/%g, want %d/%g/%g", got.N, got.Lo, got.Hi, h.N, h.Lo, h.Hi)
	}
	for i := range h.Bins {
		if got.Bins[i] != h.Bins[i] {
			t.Fatalf("bin %d: %d, want %d", i, got.Bins[i], h.Bins[i])
		}
	}
	again, _ := got.AppendBinary(nil)
	if !bytes.Equal(again, enc) {
		t.Fatalf("re-encoding differs:\n%x\n%x", again, enc)
	}
}

func roundTripMoments(t *testing.T, m Moments) {
	t.Helper()
	enc, _ := m.AppendBinary(nil)
	var got Moments
	rest, err := got.DecodeBinary(enc)
	if err != nil || len(rest) != 0 {
		t.Fatalf("decode %+v: rest %d, err %v", m, len(rest), err)
	}
	if got.N != m.N || !sameBits(got.Sum, m.Sum) || !sameBits(got.MinV, m.MinV) || !sameBits(got.MaxV, m.MaxV) {
		t.Fatalf("moments %+v round-tripped to %+v", m, got)
	}
	if again, _ := got.AppendBinary(nil); !bytes.Equal(again, enc) {
		t.Fatalf("re-encoding differs")
	}
}

func TestHistogramBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := map[string]*Histogram{}
	cases["empty"] = NewHistogram(-40, 140, 720)
	single := NewHistogram(-40, 140, 720)
	single.Add(36.6)
	cases["single-bin"] = single
	first := NewHistogram(0, 1, 8)
	first.Add(-1)
	cases["first-bin"] = first
	last := NewHistogram(0, 1, 8)
	last.Add(2)
	cases["last-bin"] = last
	full := NewHistogram(0, 1, 16)
	for i := range full.Bins {
		full.Bins[i] = uint64(i+1) << (i * 3) // up to multi-byte uvarints
		full.N += full.Bins[i]
	}
	cases["all-bins-full"] = full
	negZero := NewHistogram(math.Copysign(0, -1), math.Inf(1), 4)
	negZero.Add(math.NaN())
	negZero.Add(math.Inf(1))
	cases["neg-zero-inf-shape"] = negZero
	for name, h := range cases {
		t.Run(name, func(t *testing.T) { roundTripHistogram(t, h) })
	}
	for i := 0; i < 200; i++ {
		h := NewHistogram(-40, 140, 1+rng.Intn(800))
		for n := rng.Intn(300); n > 0; n-- {
			h.Add(20 + 30*rng.NormFloat64())
		}
		roundTripHistogram(t, h)
	}
}

func TestMomentsBinaryRoundTrip(t *testing.T) {
	roundTripMoments(t, Moments{})
	for _, v := range specialFloats {
		var m Moments
		m.Add(v)
		roundTripMoments(t, m)
		roundTripMoments(t, Moments{N: math.MaxUint64, Sum: v, MinV: v, MaxV: v})
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		var m Moments
		for n := rng.Intn(50); n > 0; n-- {
			m.Add(rng.NormFloat64() * 1e3)
		}
		roundTripMoments(t, m)
	}
}

func TestHistogramBinaryRejects(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	h.Add(3)
	h.Add(3)
	h.Add(7)
	enc, _ := h.AppendBinary(nil)
	dst := NewHistogram(0, 10, 10)
	for n := 0; n < len(enc); n++ {
		if _, err := dst.DecodeBinary(enc[:n]); !errors.Is(err, errBinary) {
			t.Errorf("truncated to %d of %d bytes: err %v", n, len(enc), err)
		}
	}
	for name, shape := range map[string]*Histogram{
		"lo":   NewHistogram(-1, 10, 10),
		"hi":   NewHistogram(0, 11, 10),
		"bins": NewHistogram(0, 10, 11),
	} {
		if _, err := shape.DecodeBinary(enc); !errors.Is(err, errBinary) {
			t.Errorf("shape mismatch (%s): err %v", name, err)
		}
	}
	// Hand-built payloads over the 10-bin shape: header then body.
	head := enc[:17] // Lo, Hi, bin count
	for name, body := range map[string][]byte{
		"span past the bins":  {8, 3, 1, 1, 1, 3},
		"empty span, first>0": {2, 0, 0},
		"leading zero count":  {3, 2, 0, 1, 1},
		"trailing zero count": {3, 2, 1, 0, 1},
		"N mismatch":          {3, 1, 2, 3},
		"overlong uvarint":    {3, 1, 0x82, 0x00, 2},
	} {
		if _, err := dst.DecodeBinary(append(append([]byte{}, head...), body...)); !errors.Is(err, errBinary) {
			t.Errorf("%s: err %v", name, err)
		}
	}
}

func TestMomentsBinaryRejectsTruncation(t *testing.T) {
	enc, _ := (&Moments{N: 300, Sum: 1, MinV: -1, MaxV: 2}).AppendBinary(nil)
	for n := 0; n < len(enc); n++ {
		var m Moments
		if _, err := m.DecodeBinary(enc[:n]); !errors.Is(err, errBinary) {
			t.Errorf("truncated to %d of %d bytes: err %v", n, len(enc), err)
		}
		if m != (Moments{}) {
			t.Errorf("failed decode mutated the receiver: %+v", m)
		}
	}
}
