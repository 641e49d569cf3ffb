package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"time"
)

// span is one timed call the harness made into a layer: name, start, end,
// the span that caused it, and the cell or submission it belongs to.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Name    string `json:"name"`
	Key     string `json:"key,omitempty"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
}

// tracer keeps spans in memory and writes them out once, at the end of the
// run. A disabled tracer records nothing and returns span id 0.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// open starts a span and returns its id (0 when tracing is off).
func (t *tracer) open(name, key string, parent int) int {
	if t == nil || !t.on {
		return 0
	}
	now := time.Since(t.t0).Microseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Key: key, StartUS: now, EndUS: -1})
	return len(t.spans)
}

// close ends span id.
func (t *tracer) close(id int) {
	if t == nil || !t.on || id == 0 {
		return
	}
	now := time.Since(t.t0).Microseconds()
	t.mu.Lock()
	t.spans[id-1].EndUS = now
	t.mu.Unlock()
}

// mark records an instant span: a completion seen from outside, such as one
// fleet cell's progress event.
func (t *tracer) mark(name, key string, parent int) {
	t.close(t.open(name, key, parent))
}

// write stores the spans as JSON under dir and returns the path.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	return path, os.WriteFile(path, data, 0o644)
}

// reproModules are the repository packages reported as layers of their
// own; the other repository packages (platform, trace, ...) fold into
// "other".
var reproModules = []string{
	"sim", "thermal", "mat", "sysid", "power", "kernel", "dtpm", "governor",
	"sensor", "scenario", "workload", "stats", "fleet", "campaign", "sched",
	"store", "controlapi", "server", "client",
}

// modules are the layers a CPU profile is folded into, in report order:
// the repository packages, then the standard-library and runtime layers
// the workloads lean on. Everything else lands in "other".
var modules = append(append([]string(nil), reproModules...),
	"math", "math_rand", "gc", "runtime", "crypto_sha256", "encoding_json", "syscall", "net", "other")

// moduleOf folds a profiled function name into its module.
func moduleOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		pkg, _, _ = strings.Cut(pkg, "/")
		for _, m := range reproModules {
			if pkg == m {
				return m
			}
		}
		return "other"
	}
	switch {
	case strings.HasPrefix(fn, "math/rand"):
		return "math_rand"
	case strings.HasPrefix(fn, "math."), strings.HasPrefix(fn, "math/bits."):
		return "math"
	case strings.HasPrefix(fn, "crypto/") && strings.Contains(fn, "sha256"):
		return "crypto_sha256"
	case strings.HasPrefix(fn, "encoding/json."):
		return "encoding_json"
	case strings.HasPrefix(fn, "syscall."), strings.HasPrefix(fn, "internal/runtime/syscall."),
		strings.HasPrefix(fn, "internal/syscall/"):
		return "syscall"
	case strings.HasPrefix(fn, "net.") || strings.HasPrefix(fn, "net/"):
		return "net"
	case strings.HasPrefix(fn, "runtime."):
		if isGC(strings.TrimPrefix(fn, "runtime.")) {
			return "gc"
		}
		return "runtime"
	}
	return "other"
}

// isGC tells the garbage collector's runtime functions (marking, scanning,
// sweeping, write barriers) from the rest of the runtime. It is a name
// heuristic: allocation (mallocgc) stays in "runtime".
func isGC(fn string) bool {
	if strings.HasPrefix(fn, "mallocgc") {
		return false
	}
	for _, p := range []string{"gc", "(*gc", "bgsweep", "bgscavenge", "sweepone", "(*sweep", "(*mspan).sweep", "markroot", "markBits", "(*markBits"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	for _, s := range []string{"scanobject", "scanblock", "scanstack", "scanframe", "greyobject", "findObject", "wbBuf", "shade", "heapBitsSmall"} {
		if strings.Contains(fn, s) {
			return true
		}
	}
	return false
}

// profiler takes CPU profiles around traced phases and folds every sample
// by its leaf function into per-module self time.
type profiler struct {
	buf    bytes.Buffer
	active bool
	selfNS map[string]int64
	err    error
}

func newProfiler() *profiler { return &profiler{selfNS: map[string]int64{}} }

func (p *profiler) start() {
	if p.active || p.err != nil {
		return
	}
	p.buf.Reset()
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		p.err = err
		return
	}
	p.active = true
}

func (p *profiler) stop() {
	if !p.active {
		return
	}
	pprof.StopCPUProfile()
	p.active = false
	self, err := foldProfile(p.buf.Bytes())
	if err != nil {
		p.err = err
		return
	}
	for fn, ns := range self {
		p.selfNS[moduleOf(fn)] += ns
	}
}

// layers reports self_ms.<module> and self_share.<module> for every module.
func (p *profiler) layers(out map[string]float64) {
	var total int64
	for _, ns := range p.selfNS {
		total += ns
	}
	for _, m := range modules {
		ns := p.selfNS[m]
		out["self_ms."+m] = float64(ns) / 1e6
		share := 0.0
		if total > 0 {
			share = float64(ns) / float64(total)
		}
		out["self_share."+m] = share
	}
}

// foldProfile decodes a gzipped pprof CPU profile and returns the CPU
// nanoseconds attributed to each leaf function (self time). It reads only
// the fields it needs from the profile.proto wire format.
func foldProfile(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("perfbench: profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("perfbench: profile: %w", err)
	}
	type sample struct {
		locs, vals []uint64
	}
	var (
		samples []sample
		locFn   = map[uint64]uint64{} // location id -> leaf function id
		fnName  = map[uint64]int64{}  // function id -> string index
		strs    []string
		nTypes  int
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			nTypes++
		case 2: // sample
			var s sample
			err := eachField(b, func(n, w int, v uint64, pb []byte) error {
				switch n {
				case 1:
					s.locs = appendVarints(s.locs, w, v, pb)
				case 2:
					s.vals = appendVarints(s.vals, w, v, pb)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id, leaf uint64
			haveLeaf := false
			err := eachField(b, func(n, _ int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					if haveLeaf {
						return nil
					}
					haveLeaf = true
					return eachField(lb, func(ln, _ int, lv uint64, _ []byte) error {
						if ln == 1 {
							leaf = lv
						}
						return nil
					})
				}
				return nil
			})
			locFn[id] = leaf
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// CPU profiles carry [samples/count, cpu/nanoseconds]; use the last
	// value type, which is the time.
	valIndex := nTypes - 1
	out := map[string]int64{}
	for _, s := range samples {
		if len(s.locs) == 0 || valIndex < 0 || valIndex >= len(s.vals) {
			continue
		}
		name := "?"
		if si, ok := fnName[locFn[s.locs[0]]]; ok && si >= 0 && int(si) < len(strs) {
			name = strs[si]
		}
		out[name] += int64(s.vals[valIndex])
	}
	return out, nil
}

// appendVarints adds one repeated-varint field occurrence, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, packed []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

var errProto = errors.New("perfbench: malformed profile")

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and either its varint value or its bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var (
			v    uint64
			data []byte
		)
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
