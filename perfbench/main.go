// Command perfbench is the repository benchmark: four workloads that time
// the fleet engine, the result store, the campaign engine, and the reprod
// daemon from outside, through their public calls, and check every report
// they produce against the committed goldens and against each other.
//
// Run it through run.sh, which builds it and the daemon from source:
//
//	bash perfbench/run.sh --workload fleet-compute --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: {"correct",
// "attempted", "failed", "metrics"}. With --trace 0 the metrics are the
// end-to-end metrics of BENCHMARK.json; with --trace 1 they are the
// per-layer ones, taken from spans around the harness's own calls and a CPU
// profile folded by package. README.md says what each number means.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/hostinfo"
)

// metricDef is one reported metric: its name and unit, and for end-to-end
// metrics how host speed scales it: -1 for a time (divided by the run's
// slowdown), +1 for a rate (multiplied by it), 0 for neither.
type metricDef struct {
	name, unit string
	speed      int
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload (see README.md for each workload's definition), normalized to
// the reference host speed (see speedProbe).
var endToEnd = []metricDef{
	{"setup_s", "s", -1},
	{"cells_per_s", "cells/s", +1},
	{"cpu_ms_per_cell", "ms", -1},
	{"peak_rss_mb", "MiB", 0},
	{"fresh_run_ms", "ms", -1},
	{"warm_run_ms", "ms", -1},
}

// perLayer are the traced-run metrics. Every workload reports every one;
// a layer a workload never calls reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.intervals", "count", 0},
		{"sim.host_us_per_interval", "us", 0},
		{"sim.sim_s_per_host_s", "ratio", 0},
	}
	for _, m := range modules {
		defs = append(defs, metricDef{"self_ms." + m, "ms", 0})
	}
	for _, m := range modules {
		defs = append(defs, metricDef{"self_share." + m, "ratio", 0})
	}
	for _, d := range [][2]string{
		{"alloc_mb_per_cell", "MiB"},
		{"trace.overhead_pct", "%"},
		{"fleet.cells_computed", "count"},
		{"fleet.cells_cached", "count"},
		{"fleet.render_ms", "ms"},
		{"campaign.render_ms", "ms"},
		{"setup.characterize_s." + platforms[0], "s"},
		{"setup.characterize_s." + platforms[1], "s"},
		{"setup.characterize_s." + platforms[2], "s"},
		{"store.hits", "count"},
		{"store.misses", "count"},
		{"store.writes", "count"},
		{"store.invalid", "count"},
		{"store.hit_ratio", "ratio"},
		{"store.entries", "count"},
		{"store.bytes", "bytes"},
		{"client.submit_ms", "ms"},
		{"client.first_event_ms", "ms"},
		{"client.follow_ms", "ms"},
		{"client.report_ms", "ms"},
		{"client.events_per_run", "count"},
		{"client.refused", "count"},
		{"daemon.done_hits", "count"},
		{"daemon.done_misses", "count"},
		{"daemon.rss_mb", "MiB"},
		{"daemon.retained", "count"},
		{"daemon.evicted", "count"},
		{"daemon.warm_p95_ms", "ms"},
		{"daemon.jobs_per_s", "jobs/s"},
		{"host.slowdown", "ratio"},
	} {
		defs = append(defs, metricDef{d[0], d[1], 0})
	}
	return defs
}()

// env is what every workload gets: the checkout, the daemon binary, the
// output directory, and the run parameters.
type env struct {
	root    string // repository root (golden files are read from here)
	reprod  string // the reprod binary built from this checkout
	out     string // output directory for stores, spans and daemon state
	seed    int64
	seconds float64
	trace   bool
	tiny    bool // self-test sizes: tiny populations, one setup repetition
	workers int
	stdout  io.Writer
	probe   *speedProbe
}

// outcome is a finished workload: the operation counts, the metrics of the
// run's mode, and the workload's own metrics printed by name for humans.
type outcome struct {
	attempted, failed int
	e2e               map[string]float64
	layer             map[string]float64
	printed           []printedMetric
}

type printedMetric struct {
	name  string
	value float64
	unit  string
}

func (o *outcome) print(name string, value float64, unit string) {
	o.printed = append(o.printed, printedMetric{name, value, unit})
}

// errIncorrect marks a failed correctness gate: the run prints
// correct=false and exits non-zero.
var errIncorrect = errors.New("output mismatch")

type workloadFunc func(ctx context.Context, e *env) (*outcome, error)

var workloads = map[string]workloadFunc{
	"fleet-compute": runFleetCompute,
	"fleet-store":   runFleetStore,
	"campaign-grid": runCampaignGrid,
	"daemon-loop":   runDaemonLoop,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wl      = fs.String("workload", "", "fleet-compute, fleet-store, campaign-grid or daemon-loop")
		seed    = fs.Int64("seed", 1, "workload seed: every input is derived from it")
		seconds = fs.Float64("seconds", 20, "how long the timed phase measures")
		trace   = fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		tiny    = fs.Bool("tiny", false, "self-test sizes (every metric, tiny populations)")
		root    = fs.String("root", ".", "repository root")
		reprod  = fs.String("reprod", "", "reprod binary (daemon-loop)")
		out     = fs.String("out", ".bench_build", "output directory for stores and spans")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*wl]
	if !ok || (*trace != 0 && *trace != 1) || !(*seconds > 0) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of fleet-compute, fleet-store, campaign-grid, daemon-loop), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	e := &env{
		root: *root, reprod: *reprod, seed: *seed, seconds: *seconds,
		trace: *trace == 1, tiny: *tiny, workers: min(2, runtime.NumCPU()), stdout: stdout,
	}
	var err error
	if e.out, err = filepath.Abs(*out); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return report(e, *wl, fn, stderr)
}

// report runs one workload between two calibration probes and prints the
// human-readable metric lines and the final JSON result.
func report(e *env, name string, fn workloadFunc, stderr io.Writer) int {
	host, _ := json.Marshal(hostinfo.Collect())
	fmt.Fprintf(e.stdout, "perfbench workload=%s seed=%d seconds=%g trace=%v workers=%d\n", name, e.seed, e.seconds, e.trace, e.workers)
	fmt.Fprintf(e.stdout, "host %s\n", host)
	calStart := calibrate()
	e.probe = newSpeedProbe()
	e.probe.run()
	o, err := fn(context.Background(), e)
	e.probe.run()
	calEnd := calibrate()
	fmt.Fprintf(e.stdout, "calibration sha256_mib_s start=%.1f end=%.1f (provenance only)\n", calStart, calEnd)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		if errors.Is(err, errIncorrect) {
			printResult(e.stdout, false, 1, 1, nil, nil)
		}
		return 1
	}
	for _, p := range o.printed {
		fmt.Fprintf(e.stdout, "metric %-22s %14.4f %s\n", p.name, p.value, p.unit)
	}
	defs, vals := endToEnd, o.e2e
	if e.trace {
		defs, vals = perLayer, o.layer
	}
	slow := e.probe.slowdown()
	o.layer["host.slowdown"] = slow
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "perfbench: workload %s did not measure %s\n", name, d.name)
			return 1
		}
	}
	setupSlow := e.probe.setupSlowdown()
	fmt.Fprintf(e.stdout, "host slowdown %.4f, during set-up %.4f (median speed probe over the nominal %.0f ms; %d probes)\n", slow, setupSlow, probeNominalS*1000, len(e.probe.times))
	if !e.trace {
		norm := map[string]float64{}
		for _, d := range endToEnd {
			raw, s := o.e2e[d.name], slow
			if d.name == "setup_s" {
				s = setupSlow
			}
			norm[d.name] = raw * math.Pow(s, float64(d.speed))
			fmt.Fprintf(e.stdout, "e2e %-18s %14.4f %-8s (raw %.4f)\n", d.name, norm[d.name], d.unit, raw)
		}
		vals = norm
	}
	printResult(e.stdout, true, o.attempted, o.failed, defs, vals)
	return 0
}

func printResult(w io.Writer, correct bool, attempted, failed int, defs []metricDef, vals map[string]float64) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, attempted, failed, map[string]metric{}}
	for _, d := range defs {
		res.Metrics[d.name] = metric{vals[d.name], d.unit}
	}
	data, _ := json.Marshal(res)
	fmt.Fprintf(w, "%s\n", data)
}

// deriveSeed spreads the workload seed into an independent positive
// 31-bit base seed for one purpose (splitmix64 finalizer).
func deriveSeed(seed int64, purpose uint64) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + purpose*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z>>33) + 1
}

// deadline is the end of the timed phase that starts now.
func (e *env) deadline() time.Time {
	return time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
}

// setupReps is how often set-up is repeated to report its median.
func (e *env) setupReps() int {
	if e.tiny {
		return 1
	}
	return 5
}
