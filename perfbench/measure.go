package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is this process's user+sys CPU time so far (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU is another process's user+sys CPU time, read from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks of 1/100 s, the
// Linux USER_HZ).
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; the fields after it are fixed.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("perfbench: malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("perfbench: short /proc/%d/stat", pid)
	}
	// f[0] is field 3 (state), so utime (14) is f[11] and stime (15) f[12].
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("perfbench: bad cpu fields in /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// procStatusMiB reads one kB-valued line ("VmHWM", "VmRSS") of
// /proc/<pid>/status, in MiB. pid 0 means this process.
func procStatusMiB(pid int, key string) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok || k != key {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("perfbench: %s: %w", key, err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("perfbench: %s not in %s", key, path)
}

// totalAllocMiB is the cumulative heap allocation of this process.
func totalAllocMiB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

// calibrate is the fixed CPU calibration probe (cleanroom's "Workload C"):
// SHA-256 over 64 MiB of fixed bytes, reported as MiB/s. Taken at the start
// and the end of a run, it shows a noisy neighbour as a drop between the
// two; it is provenance, never an end-to-end metric.
func calibrate() float64 {
	buf := make([]byte, 1<<20)
	for i := range buf {
		buf[i] = byte(i * 31)
	}
	const mib = 64
	h := sha256.New()
	start := time.Now()
	for i := 0; i < mib; i++ {
		h.Write(buf)
	}
	h.Sum(nil)
	return mib / time.Since(start).Seconds()
}

// quantile is the nearest-rank q-quantile (0 < q <= 1) of xs; NaN-free
// input assumed, 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median is the midpoint median of xs (mean of the two middle values for
// an even count), 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// probeNominalS is the speed probe's duration on the reference host the
// end-to-end metrics are normalized to: about its median on the 2-vCPU
// Xeon VM the benchmark was calibrated on, so normalized figures read
// close to raw ones there.
const probeNominalS = 0.019

// speedProbe tracks how fast the host runs while a workload is measured.
// It runs a fixed CPU probe between timed units (never inside one) and
// keeps every probe's duration. The host this benchmark was built on
// drifts by ±20% over minutes, in CPU time as well as wall time, while
// pass times within 20 s follow the probe closely (r ≈ 0.93 over 20 s
// windows). Dividing end-to-end times by the run's median probe time
// therefore removes the drift that no amount of work per run can.
type speedProbe struct {
	last     time.Time
	times    []float64
	setupEnd int // probes taken up to the end of set-up
	buf      []byte
}

func newSpeedProbe() *speedProbe {
	buf := make([]byte, 1<<20)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	return &speedProbe{buf: buf}
}

// run takes one probe on one thread: SHA-256 over 8 MiB and a
// transcendental float recurrence, about 20 ms together. It allocates
// nothing. (A probe on every worker thread at once tracked the workloads
// less well.)
func (p *speedProbe) run() {
	start := time.Now()
	var sum [sha256.Size]byte
	for i := 0; i < 8; i++ {
		sum = sha256.Sum256(p.buf)
		p.buf[i] ^= sum[0]
	}
	x, y := 0.5, 0.25
	for i := 0; i < 250000; i++ {
		x = math.Exp(-x*0.5) + 0.1*math.Sin(y)
		y = y*0.999 + x*0.001
	}
	p.buf[0] ^= byte(x + y)
	p.times = append(p.times, time.Since(start).Seconds())
	p.last = time.Now()
}

// maybe probes when the last probe is at least a second old.
func (p *speedProbe) maybe() {
	if time.Since(p.last) >= time.Second {
		p.run()
	}
}

// endSetup marks the end of set-up: set-up time is normalized by the
// probes taken around its repetitions only, the rest by all of them.
func (p *speedProbe) endSetup() {
	p.run()
	p.setupEnd = len(p.times)
}

// slowdown is the run's median probe time over the nominal one: 1 on the
// reference host, 1.2 on a host running 20% slower.
func (p *speedProbe) slowdown() float64 {
	if len(p.times) == 0 {
		return 1
	}
	return median(p.times) / probeNominalS
}

// setupSlowdown is slowdown over the probes taken until endSetup.
func (p *speedProbe) setupSlowdown() float64 {
	if p.setupEnd == 0 {
		return p.slowdown()
	}
	return median(p.times[:p.setupEnd]) / probeNominalS
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
