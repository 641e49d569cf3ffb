package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/client"
	"repro/internal/controlapi"
	"repro/internal/fleet"
	"repro/internal/sim"
	"repro/internal/workload"
)

// daemon is one reprod process on loopback with its own empty store.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	store  string
	stderr bytes.Buffer
	mu     sync.Mutex // guards stderr
	done   chan struct{}
}

// startDaemon starts reprod on an ephemeral loopback port and returns once
// it is listening. The daemon uses the default admission limit of one
// active run, so a fresh run blocks the warm ones queued behind it.
func startDaemon(bin, storeDir string, workers int) (*daemon, error) {
	if bin == "" {
		return nil, errors.New("daemon-loop needs -reprod")
	}
	d := &daemon{store: storeDir, done: make(chan struct{})}
	d.cmd = exec.Command(bin, "-listen", "127.0.0.1:0", "-store", storeDir,
		"-workers", fmt.Sprint(workers), "-max-active", "1")
	// The daemon must not outlive the harness, even if the harness is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	addr := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "reprod: listening on "); ok {
				a, _, _ := strings.Cut(rest, " ")
				addr <- a
			}
			d.mu.Lock()
			d.stderr.WriteString(line + "\n")
			d.mu.Unlock()
		}
	}()
	select {
	case d.addr = <-addr:
		return d, nil
	case <-d.done:
	case <-time.After(30 * time.Second):
	}
	d.stop()
	return nil, fmt.Errorf("reprod did not start listening: %s", d.log())
}

func (d *daemon) log() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.TrimSpace(d.stderr.String())
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop drains the daemon with SIGTERM and waits for it to exit, killing it
// if the drain takes longer than 20 s.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
	return d.cmd.Wait()
}

// waitHealthy polls healthz until the daemon answers ok.
func waitHealthy(ctx context.Context, c *client.Client) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		h, err := c.Health(ctx)
		if err == nil && h.OK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon not healthy: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// op kinds of the daemon-loop traffic mix.
const (
	opWarm     = "warm"     // resubmit a spec from the primed pool
	opFresh    = "fresh"    // a new fleet spec on the base seed
	opCampaign = "campaign" // a small campaign grid on the base seed
	opNewSeed  = "newseed"  // a small fleet under a base seed never seen
)

// dlSpec is one daemon-loop submission.
type dlSpec struct {
	kind  string // controlapi.KindFleet or KindCampaign
	spec  []byte
	seed  int64
	cells int
}

// dlPool is the warm pool: fleet specs and campaign grids submitted once
// during set-up, then resubmitted by the loop.
type dlPool struct {
	base  int64
	specs []dlSpec
	grids []dlSpec
}

func newPool(e *env) (*dlPool, error) {
	p := &dlPool{base: deriveSeed(e.seed, 4)}
	nSpecs, nGrids := 6, 2
	if e.tiny {
		nSpecs, nGrids = 2, 1
	}
	scen := []string{"cold-start", "bursty-interactive", "gaming-session", "video-playback", "app-switch-storm", "mixed-cpu-gpu"}
	for i := 0; i < nSpecs; i++ {
		s := fleet.Spec{
			Name:      fmt.Sprintf("pool-%d", i),
			N:         48 + 16*(i%3),
			Scenarios: []fleet.Weight{{Name: scen[i%len(scen)], Weight: 2}, {Name: scen[(i+1)%len(scen)], Weight: 1}},
		}
		// Spec 0 stays on the anchor platform: the harness re-runs it
		// in-process to compare against the daemon's report.
		if i > 0 {
			s.Platforms = []fleet.Weight{{Name: platforms[0], Weight: 2}, {Name: platforms[1], Weight: 1}, {Name: platforms[2], Weight: 1}}
			s.AmbientJitterC = 5
		}
		ds, err := fleetSubmission(s, p.base)
		if err != nil {
			return nil, err
		}
		p.specs = append(p.specs, ds)
	}
	benches := workload.Names()
	for i := 0; i < nGrids; i++ {
		g := campaign.Grid{
			Policies:   []sim.Policy{sim.PolicyDTPM, sim.PolicyReactive},
			Benchmarks: []string{benches[2*i], benches[2*i+1]},
			Seeds:      []int64{1},
		}
		data, err := json.Marshal(g)
		if err != nil {
			return nil, err
		}
		p.grids = append(p.grids, dlSpec{kind: controlapi.KindCampaign, spec: data, seed: p.base, cells: g.Size()})
	}
	return p, nil
}

func fleetSubmission(s fleet.Spec, seed int64) (dlSpec, error) {
	data, err := json.Marshal(s)
	if err != nil {
		return dlSpec{}, err
	}
	return dlSpec{kind: controlapi.KindFleet, spec: data, seed: seed, cells: s.N}, nil
}

// opMix is one block of the traffic mix: mostly warm resubmits, some new
// specs on the base seed (compute plus store writes), an occasional small
// campaign grid, and a small share under new base seeds. Each new seed
// costs the daemon a characterization and an engine slot it never evicts,
// so the daemon's known slot growth shows in peak_rss_mb. Each client runs
// the block over and over in a seeded shuffled order, so every seed gets
// the same proportions and only the order varies.
var opMix = map[string]int{opWarm: 81, opFresh: 12, opCampaign: 5, opNewSeed: 2}

// opSchedule returns a client's op kinds: shuffled copies of the block.
func opSchedule(rng *rand.Rand) func() string {
	var block []string
	for _, k := range []string{opWarm, opFresh, opCampaign, opNewSeed} {
		for i := 0; i < opMix[k]; i++ {
			block = append(block, k)
		}
	}
	var cur []string
	return func() string {
		if len(cur) == 0 {
			cur = append([]string(nil), block...)
			rng.Shuffle(len(cur), func(i, j int) { cur[i], cur[j] = cur[j], cur[i] })
		}
		k := cur[0]
		cur = cur[1:]
		return k
	}
}

// nextOp builds op n of a client.
func (p *dlPool) nextOp(kind string, rng *rand.Rand, client, n int) (dlSpec, error) {
	switch kind {
	case opWarm:
		return p.specs[rng.Intn(len(p.specs))], nil
	case opFresh:
		// One platform and one scenario keep the cost of a fresh spec the
		// same for every seed; a jitter no other op uses makes every cell
		// a store miss.
		return fleetSubmission(fleet.Spec{
			Name:           "fresh",
			N:              32,
			Scenarios:      []fleet.Weight{{Name: "bursty-interactive", Weight: 1}},
			AmbientJitterC: 3 + float64(client*100000+n)*1e-6,
		}, p.base)
	case opCampaign:
		return p.grids[rng.Intn(len(p.grids))], nil
	}
	return fleetSubmission(fleet.Spec{
		Name:      "newseed",
		N:         16,
		Scenarios: []fleet.Weight{{Name: "cold-start", Weight: 1}},
	}, deriveSeed(p.base, uint64(1000+client*100000+n)))
}

// opResult is one submission as the client saw it.
type opResult struct {
	kind                               string
	cells                              int
	latency                            time.Duration
	submit, firstEvent, follow, report time.Duration
	events                             int
	hits, misses                       uint64
	refused                            bool
	err                                error
	json                               []byte
}

// submitOp submits one spec and waits for its done event and its JSON
// report, timing each client call.
func submitOp(ctx context.Context, c *client.Client, tr *tracer, key string, s dlSpec) opResult {
	r := opResult{cells: s.cells}
	root := tr.open("client.op", key, 0)
	defer tr.close(root)
	t0 := time.Now()
	req := controlapi.SubmitRequest{Spec: s.spec, Seed: s.seed}
	id := tr.open("client.submit", key, root)
	var (
		info *controlapi.RunInfo
		err  error
	)
	if s.kind == controlapi.KindFleet {
		info, err = c.SubmitFleet(ctx, req)
	} else {
		info, err = c.SubmitCampaign(ctx, req)
	}
	tr.close(id)
	r.submit = time.Since(t0)
	if err != nil {
		r.refused = errors.Is(err, controlapi.ErrQueueFull) || errors.Is(err, controlapi.ErrDraining)
		r.err = err
		return r
	}
	f0 := time.Now()
	id = tr.open("client.follow", key, root)
	done, err := c.Follow(ctx, info.ID, 0, func(controlapi.Event) error {
		if r.events == 0 {
			r.firstEvent = time.Since(f0)
		}
		r.events++
		return nil
	})
	tr.close(id)
	r.follow = time.Since(f0)
	if err != nil {
		r.err = err
		return r
	}
	if done.State != controlapi.StateSucceeded || done.Failures > 0 {
		r.err = fmt.Errorf("run %s ended %s with %d failures: %s", info.ID, done.State, done.Failures, done.RunErr)
		return r
	}
	r.hits, r.misses = done.Hits, done.Misses
	p0 := time.Now()
	id = tr.open("client.report", key, root)
	r.json, err = c.Report(ctx, info.ID, "json")
	tr.close(id)
	r.report = time.Since(p0)
	r.latency = time.Since(t0)
	r.err = err
	return r
}

// dlStart is one set-up: a fresh daemon and empty store, healthz answering,
// and every pool spec and grid submitted once.
func dlStart(ctx context.Context, e *env, dir string, pool *dlPool, rep int) (*daemon, *client.Client, map[string][]byte, time.Duration, error) {
	t0 := time.Now()
	d, err := startDaemon(e.reprod, filepath.Join(dir, fmt.Sprintf("store-%d", rep)), e.workers)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	c := client.New(d.addr)
	if err := waitHealthy(ctx, c); err != nil {
		d.stop()
		return nil, nil, nil, 0, err
	}
	primed := map[string][]byte{}
	for _, s := range append(append([]dlSpec(nil), pool.specs...), pool.grids...) {
		r := submitOp(ctx, c, nil, "prime", s)
		if r.err != nil {
			d.stop()
			return nil, nil, nil, 0, fmt.Errorf("priming: %w", r.err)
		}
		primed[string(s.spec)] = r.json
	}
	return d, c, primed, time.Since(t0), nil
}

// runDaemonLoop: the reprod binary on loopback, fresh daemon and empty
// store per run, driven by closed-loop clients (each waits for its reply
// before sending the next request).
func runDaemonLoop(ctx context.Context, e *env) (*outcome, error) {
	if err := checkGolden(ctx, e); err != nil {
		return nil, err
	}
	dir, err := runDir(e, "daemon-loop")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	pool, err := newPool(e)
	if err != nil {
		return nil, err
	}
	var (
		d      *daemon
		c      *client.Client
		primed map[string][]byte
		setups []float64
	)
	for r := 0; r < e.setupReps(); r++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, fmt.Errorf("stopping set-up daemon: %w", err)
			}
		}
		e.probe.run()
		var s time.Duration
		if d, c, primed, s, err = dlStart(ctx, e, dir, pool, r); err != nil {
			return nil, err
		}
		setups = append(setups, s.Seconds())
	}
	e.probe.endSetup()
	o, lerr := daemonLoop(ctx, e, d, c, pool, primed)
	serr := d.stop()
	if lerr != nil {
		return nil, lerr
	}
	if serr != nil {
		return nil, fmt.Errorf("stopping daemon: %w", serr)
	}
	// One daemon report must equal the in-process report of the same spec
	// and seed.
	var spec fleet.Spec
	if err := json.Unmarshal(pool.specs[0].spec, &spec); err != nil {
		return nil, err
	}
	rep, err := (&fleet.Engine{Workers: e.workers, BaseSeed: pool.base}).Run(ctx, spec)
	if err != nil {
		return nil, err
	}
	ex, err := render(rep)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(ex.json, primed[string(pool.specs[0].spec)]) {
		return nil, fmt.Errorf("%w: daemon report of %s differs from the in-process report", errIncorrect, spec.Name)
	}
	fmt.Fprintln(e.stdout, "gate daemon-vs-inprocess: ok")
	o.e2e["setup_s"] = median(setups)
	o.print("setup_s", o.e2e["setup_s"], "s")
	return o, nil
}

// daemonLoop drives the closed loop until the deadline and measures it.
func daemonLoop(ctx context.Context, e *env, d *daemon, c *client.Client, pool *dlPool, primed map[string][]byte) (*outcome, error) {
	tr, prof := newTracer(e.trace), newProfiler()
	clients := e.workers
	cpu0, err := procCPU(d.pid())
	if err != nil {
		return nil, err
	}
	start := time.Now()
	until := e.deadline()
	// Trace mode runs the first half untraced and the second half traced;
	// the jobs/s difference between the halves is the tracing overhead.
	half := start.Add(until.Sub(start) / 2)
	var (
		mu      sync.Mutex
		results []opResult
		halves  [2]int
		wg      sync.WaitGroup
		// Clients pause while the harness probes host speed, so a probe
		// never competes with the loop and its pause is not loop time.
		gate   sync.RWMutex
		paused time.Duration
	)
	stopProbe, probeDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(probeDone)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-stopProbe:
				return
			case <-tick.C:
				gate.Lock()
				p0 := time.Now()
				e.probe.run()
				paused += time.Since(p0)
				gate.Unlock()
			}
		}
	}()
	errc := make(chan error, clients)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(deriveSeed(e.seed, uint64(200+ci))))
			next := opSchedule(rng)
			for n := 0; time.Now().Before(until); n++ {
				kind := next()
				s, err := pool.nextOp(kind, rng, ci, n)
				if err != nil {
					errc <- err
					return
				}
				var t *tracer
				traced := e.trace && time.Now().After(half)
				if traced {
					t = tr
				}
				gate.RLock()
				r := submitOp(ctx, c, t, fmt.Sprintf("c%d-%d", ci, n), s)
				gate.RUnlock()
				r.kind = kind
				if r.err == nil && kind == opWarm {
					if r.misses != 0 {
						r.err = fmt.Errorf("%w: warm resubmit missed the store %d times", errIncorrect, r.misses)
					} else if !bytes.Equal(r.json, primed[string(s.spec)]) {
						r.err = fmt.Errorf("%w: warm resubmit report differs from the primed report", errIncorrect)
					}
				}
				mu.Lock()
				results = append(results, r)
				if traced {
					halves[1]++
				} else {
					halves[0]++
				}
				mu.Unlock()
				if r.err != nil && errors.Is(r.err, errIncorrect) {
					errc <- r.err
					return
				}
			}
		}(ci)
	}
	if e.trace {
		// The profile covers the traced half of the harness process, i.e.
		// the client side; the daemon has no profiling listener.
		time.Sleep(time.Until(half))
		prof.start()
	}
	wg.Wait()
	end := time.Now()
	close(stopProbe)
	<-probeDone
	if e.trace {
		prof.stop()
	}
	wall := end.Sub(start) - paused
	close(errc)
	for err := range errc {
		return nil, err
	}
	cpu1, err := procCPU(d.pid())
	if err != nil {
		return nil, err
	}
	rss, err := procStatusMiB(d.pid(), "VmHWM")
	if err != nil {
		return nil, err
	}
	cur, err := procStatusMiB(d.pid(), "VmRSS")
	if err != nil {
		return nil, err
	}
	health, err := c.Health(ctx)
	if err != nil {
		return nil, err
	}

	o := &outcome{e2e: map[string]float64{}, layer: newLayers()}
	lat := map[string][]float64{}
	var (
		cells                                 int
		submitMS, firstMS, followMS, reportMS []float64
		events, refused                       int
		hits, misses                          uint64
	)
	for _, r := range results {
		o.attempted++
		if r.err != nil {
			o.failed++
			if r.refused {
				refused++
			}
			fmt.Fprintf(e.stdout, "op failed (%s): %v\n", r.kind, r.err)
			continue
		}
		cells += r.cells
		lat[r.kind] = append(lat[r.kind], ms(r.latency))
		submitMS = append(submitMS, ms(r.submit))
		firstMS = append(firstMS, ms(r.firstEvent))
		followMS = append(followMS, ms(r.follow))
		reportMS = append(reportMS, ms(r.report))
		events += r.events
		hits += r.hits
		misses += r.misses
	}
	if cells == 0 || len(lat[opWarm]) == 0 || len(lat[opFresh]) == 0 {
		return nil, fmt.Errorf("daemon loop completed too little work (%d ops)", len(results))
	}
	jobs := float64(o.attempted-o.failed) / wall.Seconds()
	o.e2e["cells_per_s"] = float64(cells) / wall.Seconds()
	o.e2e["cpu_ms_per_cell"] = ms(cpu1-cpu0) / float64(cells)
	o.e2e["peak_rss_mb"] = rss
	o.e2e["fresh_run_ms"] = median(lat[opFresh])
	o.e2e["warm_run_ms"] = median(lat[opWarm])
	warm := lat[opWarm]
	o.print("daemon_warm_p50_ms", median(warm), "ms")
	o.print("daemon_warm_p95_ms", quantile(warm, 0.95), "ms")
	o.print("daemon_warm_samples", float64(len(warm)), "count")
	o.print("daemon_fresh_p50_ms", median(lat[opFresh]), "ms")
	o.print("daemon_fresh_samples", float64(len(lat[opFresh])), "count")
	o.print("daemon_jobs_per_s", jobs, "jobs/s")
	o.print("cells_per_s", o.e2e["cells_per_s"], "cells/s")
	o.print("cpu_ms_per_cell", o.e2e["cpu_ms_per_cell"], "ms")
	o.print("peak_rss_mb", rss, "MiB")
	o.print("op_fail_ratio", failRatio(o), "ratio")
	for _, k := range []string{opCampaign, opNewSeed} {
		o.print("ops_"+k, float64(len(lat[k])), "count")
	}
	if e.trace {
		if prof.err != nil {
			return nil, fmt.Errorf("cpu profile: %w", prof.err)
		}
		prof.layers(o.layer)
		l := o.layer
		n := float64(len(submitMS))
		l["client.submit_ms"] = median(submitMS)
		l["client.first_event_ms"] = median(firstMS)
		l["client.follow_ms"] = median(followMS)
		l["client.report_ms"] = median(reportMS)
		l["client.events_per_run"] = float64(events) / n
		l["client.refused"] = float64(refused)
		l["daemon.done_hits"] = float64(hits)
		l["daemon.done_misses"] = float64(misses)
		l["daemon.rss_mb"] = cur
		l["daemon.retained"] = float64(health.Retained)
		l["daemon.evicted"] = float64(health.Evicted)
		l["daemon.warm_p95_ms"] = quantile(warm, 0.95)
		l["daemon.jobs_per_s"] = jobs
		l["fleet.cells_cached"] = float64(hits)
		l["fleet.cells_computed"] = float64(misses)
		l["store.hits"] = float64(hits)
		l["store.misses"] = float64(misses)
		if hits+misses > 0 {
			l["store.hit_ratio"] = float64(hits) / float64(hits+misses)
		}
		entries, size := storeSize(d.store)
		l["store.entries"] = float64(entries)
		l["store.writes"] = float64(entries)
		l["store.bytes"] = float64(size)
		if halves[0] > 0 && halves[1] > 0 {
			plain := float64(halves[0]) / half.Sub(start).Seconds()
			traced := float64(halves[1]) / end.Sub(half).Seconds()
			l["trace.overhead_pct"] = (plain - traced) / plain * 100
		}
		fmt.Fprintln(e.stdout, "note: the daemon process is not profiled (no pprof listener yet); self_ms/self_share are the client side of the loop")
		if err := writeSpans(e, tr, "daemon-loop"); err != nil {
			return nil, err
		}
	}
	return o, nil
}
