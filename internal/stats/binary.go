package stats

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// This file holds the compact binary codec of the online aggregators: the
// form the fleet's result store persists them in. Floats travel as their
// IEEE-754 bit patterns (fixed 8-byte little-endian), so every value —
// NaN payloads, ±Inf and -0 included — round-trips bit-exactly; counters
// travel as minimal uvarints. Decoding is strict and canonical: any input
// a decoder accepts re-encodes to exactly the same bytes.

// errBinary is wrapped by every decode failure of this package's codecs.
var errBinary = errors.New("stats: malformed binary encoding")

// AppendBinary appends the histogram's encoding to b (the
// encoding.BinaryAppender shape): Lo and Hi as float bits, the bin count,
// the index of the first non-zero bin, the length of the span from it to
// the last non-zero bin, the span's counts, and N. Bins outside the span
// are zero and cost nothing, so a sparse histogram encodes small. An
// empty histogram encodes first = span = 0.
func (h *Histogram) AppendBinary(b []byte) ([]byte, error) {
	b = appendFloat(b, h.Lo)
	b = appendFloat(b, h.Hi)
	b = binary.AppendUvarint(b, uint64(len(h.Bins)))
	first, end := 0, 0
	for i, c := range h.Bins {
		if c != 0 {
			if end == 0 {
				first = i
			}
			end = i + 1
		}
	}
	b = binary.AppendUvarint(b, uint64(first))
	b = binary.AppendUvarint(b, uint64(end-first))
	for _, c := range h.Bins[first:end] {
		b = binary.AppendUvarint(b, c)
	}
	return binary.AppendUvarint(b, h.N), nil
}

// DecodeBinary decodes one histogram from the front of data into h and
// returns the bytes after it. h must already have the encoded shape (same
// Lo, Hi and bin count): decoding reuses its bin backing, so a pooled
// histogram is refilled without allocating, and a foreign shape is an
// error rather than an allocation sized by untrusted input. The span must
// start and end on non-zero counts and N must equal their sum.
func (h *Histogram) DecodeBinary(data []byte) ([]byte, error) {
	r := reader{data: data}
	lo, hi := r.float(), r.float()
	bins := r.uvarint()
	if r.err != nil {
		return nil, r.err
	}
	if math.Float64bits(lo) != math.Float64bits(h.Lo) || math.Float64bits(hi) != math.Float64bits(h.Hi) || bins != uint64(len(h.Bins)) {
		return nil, fmt.Errorf("%w: histogram shape [%g, %g) x %d, want [%g, %g) x %d",
			errBinary, lo, hi, bins, h.Lo, h.Hi, len(h.Bins))
	}
	first, span := r.uvarint(), r.uvarint()
	if r.err != nil {
		return nil, r.err
	}
	if first > bins || span > bins-first || (span == 0 && first != 0) {
		return nil, fmt.Errorf("%w: histogram span %d+%d outside %d bins", errBinary, first, span, bins)
	}
	clear(h.Bins)
	sum := uint64(0)
	for i := first; i < first+span; i++ {
		c := r.uvarint()
		if r.err != nil {
			return nil, r.err
		}
		if c == 0 && (i == first || i == first+span-1) {
			return nil, fmt.Errorf("%w: histogram span edge bin %d is empty", errBinary, i)
		}
		if sum+c < sum {
			return nil, fmt.Errorf("%w: histogram count overflow", errBinary)
		}
		sum += c
		h.Bins[i] = c
	}
	h.N = r.uvarint()
	if r.err != nil {
		return nil, r.err
	}
	if h.N != sum {
		return nil, fmt.Errorf("%w: histogram N %d, bins sum to %d", errBinary, h.N, sum)
	}
	return r.data, nil
}

// AppendBinary appends the accumulator's encoding to b: N as a uvarint,
// then Sum, MinV and MaxV as float bits.
func (m *Moments) AppendBinary(b []byte) ([]byte, error) {
	b = binary.AppendUvarint(b, m.N)
	b = appendFloat(b, m.Sum)
	b = appendFloat(b, m.MinV)
	return appendFloat(b, m.MaxV), nil
}

// DecodeBinary decodes one accumulator from the front of data into m and
// returns the bytes after it.
func (m *Moments) DecodeBinary(data []byte) ([]byte, error) {
	r := reader{data: data}
	v := Moments{N: r.uvarint(), Sum: r.float(), MinV: r.float(), MaxV: r.float()}
	if r.err != nil {
		return nil, r.err
	}
	*m = v
	return r.data, nil
}

// appendFloat appends v's bit pattern, little-endian.
func appendFloat(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// reader consumes fixed-width floats and minimal uvarints from the front
// of a byte slice. The first failure sticks in err and every later read
// returns zero, so a decoder checks err once per group of reads.
type reader struct {
	data []byte
	err  error
}

func (r *reader) float() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.data) < 8 {
		r.err = fmt.Errorf("%w: truncated float", errBinary)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.data))
	r.data = r.data[8:]
	return v
}

// uvarint rejects overlong encodings (a trailing zero continuation byte),
// which keeps the encoding canonical.
func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data)
	switch {
	case n <= 0:
		r.err = fmt.Errorf("%w: truncated or overflowing uvarint", errBinary)
		return 0
	case n > 1 && r.data[n-1] == 0:
		r.err = fmt.Errorf("%w: non-minimal uvarint", errBinary)
		return 0
	}
	r.data = r.data[n:]
	return v
}
