package campaign

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/sched"
	"repro/internal/sim"
)

// sharedModels caches the expensive Chapter 4 characterization across tests.
var (
	modelsOnce sync.Once
	models     *sim.Characterization
	modelsErr  error
)

func testModels(t *testing.T) *sim.Characterization {
	t.Helper()
	modelsOnce.Do(func() {
		models, modelsErr = sim.NewRunner().Characterize(context.Background(), 1)
	})
	if modelsErr != nil {
		t.Fatalf("characterize: %v", modelsErr)
	}
	return models
}

func TestGridCellsOrderAndSize(t *testing.T) {
	g := Grid{
		Policies:   []sim.Policy{sim.PolicyNoFan, sim.PolicyDTPM},
		Benchmarks: []string{"dijkstra", "patricia"},
		Seeds:      []int64{1, 2},
	}
	cells := g.Cells()
	if len(cells) != g.Size() || len(cells) != 8 {
		t.Fatalf("got %d cells, Size()=%d, want 8", len(cells), g.Size())
	}
	for i, c := range cells {
		if c.Index != i {
			t.Errorf("cell %d has Index %d", i, c.Index)
		}
	}
	// Row-major: policy outermost, seed inner.
	if cells[0].Policy != sim.PolicyNoFan || cells[4].Policy != sim.PolicyDTPM {
		t.Errorf("policy axis not outermost: %v %v", cells[0], cells[4])
	}
	if cells[0].Seed != 1 || cells[1].Seed != 2 {
		t.Errorf("seed axis not innermost: %v %v", cells[0], cells[1])
	}
	// Empty axes default rather than emptying the product.
	if n := (Grid{Benchmarks: []string{"dijkstra"}}).Size(); n != 1 {
		t.Errorf("defaulted grid size = %d, want 1", n)
	}
}

// TestOversizedGridRejected: a grid of more than sched.MaxCells cells is
// refused by Stream and RunContext before any cell is allocated — both a
// 2^21-cell grid and seven 1024-entry axes, whose product (2^70) overflows
// int. A grid of exactly sched.MaxCells cells sizes exactly.
func TestOversizedGridRejected(t *testing.T) {
	axis := func(n int) []string { return make([]string, n) }
	seeds := func(n int) []int64 { return make([]int64, n) }
	tmax := func(n int) []float64 { return make([]float64, n) }
	if n := (Grid{Seeds: seeds(1024), TMax: tmax(1024)}).Size(); n != sched.MaxCells {
		t.Errorf("1024x1024 grid size = %d, want %d", n, sched.MaxCells)
	}
	policies := make([]sim.Policy, 1024)
	for i := range policies {
		policies[i] = sim.PolicyDTPM
	}
	grids := map[string]Grid{
		"2^21 cells": {Seeds: seeds(2048), TMax: tmax(1024)},
		"seven 1024-entry axes": {
			Policies: policies, Benchmarks: axis(1024), Scenarios: axis(1024), Platforms: axis(1024),
			Governors: axis(1024), Seeds: seeds(1024), TMax: tmax(1024),
		},
	}
	for name, g := range grids {
		t.Run(name, func(t *testing.T) {
			// Fatal: a grid that sizes wrong must not reach Stream.
			if n := g.Size(); n != sched.MaxCells+1 {
				t.Fatalf("Size() = %d, want the saturated %d", n, sched.MaxCells+1)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			eng := &Engine{Workers: 1, BaseSeed: 1}
			if seq, err := eng.Stream(context.Background(), g); err == nil || seq != nil {
				t.Errorf("Stream accepted the grid (err %v)", err)
			}
			if rep, err := eng.RunContext(context.Background(), g); err == nil || rep != nil {
				t.Errorf("RunContext accepted the grid (err %v)", err)
			}
			runtime.ReadMemStats(&after)
			if d := after.TotalAlloc - before.TotalAlloc; d > 1<<20 {
				t.Errorf("rejecting the grid allocated %d bytes", d)
			}
		})
	}
}

func TestDeriveSeedStableAndDistinct(t *testing.T) {
	g := Grid{
		Policies:   []sim.Policy{sim.PolicyNoFan, sim.PolicyFan},
		Benchmarks: []string{"dijkstra", "patricia"},
		Seeds:      []int64{1, 2},
	}
	seen := map[int64]Cell{}
	for _, c := range g.Cells() {
		s := DeriveSeed(7, c)
		if s < 0 {
			t.Errorf("derived seed negative for %v", c)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("seed collision: %v and %v both derive %d", prev, c, s)
		}
		seen[s] = c
		if s != DeriveSeed(7, c) {
			t.Errorf("derivation not stable for %v", c)
		}
		// Index must not enter the derivation: the same coordinates in a
		// differently shaped grid keep their stream.
		c2 := c
		c2.Index += 100
		if DeriveSeed(7, c2) != s {
			t.Errorf("derived seed depends on Index for %v", c)
		}
	}
}

// exportBytes runs the grid at the given worker count and returns the JSON
// and CSV exports.
func exportBytes(t *testing.T, workers int, grid Grid, ch *sim.Characterization) (string, string) {
	t.Helper()
	eng := &Engine{Workers: workers, Models: ch, BaseSeed: 42}
	rep, err := eng.RunContext(context.Background(), grid)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	var j, c bytes.Buffer
	if err := rep.WriteJSON(&j); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteCSV(&c); err != nil {
		t.Fatal(err)
	}
	return j.String(), c.String()
}

// TestDeterminismAcrossWorkers is the campaign engine's core contract: the
// same grid and base seed produce byte-identical aggregated exports with
// 1, 4, and 8 workers.
func TestDeterminismAcrossWorkers(t *testing.T) {
	ch := testModels(t)
	grid := Grid{
		Policies:   []sim.Policy{sim.PolicyNoFan, sim.PolicyReactive, sim.PolicyDTPM},
		Benchmarks: []string{"dijkstra", "patricia"},
		Seeds:      []int64{1, 2},
	}
	if grid.Size() != 12 {
		t.Fatalf("grid size %d, want 12", grid.Size())
	}
	refJSON, refCSV := exportBytes(t, 1, grid, ch)
	if !strings.Contains(refCSV, "dijkstra") {
		t.Fatalf("csv missing expected rows:\n%s", refCSV)
	}
	for _, workers := range []int{4, 8} {
		j, c := exportBytes(t, workers, grid, ch)
		if j != refJSON {
			t.Errorf("JSON export differs between 1 and %d workers", workers)
		}
		if c != refCSV {
			t.Errorf("CSV export differs between 1 and %d workers", workers)
		}
	}
}

// TestFailuresCollected: bad cells are reported, good cells still run, and
// the sweep never aborts.
func TestFailuresCollected(t *testing.T) {
	grid := Grid{
		Policies:   []sim.Policy{sim.PolicyNoFan, sim.PolicyDTPM}, // DTPM fails: no models
		Benchmarks: []string{"dijkstra", "no-such-bench"},
		Governors:  []string{"", "no-such-governor"},
	}
	eng := &Engine{Workers: 4, BaseSeed: 1}
	rep, err := eng.RunContext(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 8 {
		t.Fatalf("got %d cells, want 8", len(rep.Cells))
	}
	var ok, failed int
	for _, c := range rep.Cells {
		switch {
		case c.Err != "" && c.Metrics == nil:
			failed++
		case c.Err == "" && c.Metrics != nil:
			ok++
		default:
			t.Errorf("cell %v has inconsistent result: err=%q metrics=%v", c.Cell, c.Err, c.Metrics)
		}
	}
	// Only without-fan/dijkstra/ondemand succeeds; DTPM lacks a model,
	// and the other benchmark/governor coordinates are invalid.
	if ok != 1 || failed != 7 {
		t.Errorf("ok=%d failed=%d, want 1/7:\n%s", ok, failed, rep.Summary())
	}
	if len(rep.Failures()) != failed {
		t.Errorf("Failures() = %d, want %d", len(rep.Failures()), failed)
	}
}

func TestProgressCallbackSerialAndComplete(t *testing.T) {
	grid := Grid{
		Policies:   []sim.Policy{sim.PolicyNoFan},
		Benchmarks: []string{"dijkstra"},
		Seeds:      []int64{1, 2, 3, 4},
	}
	var calls []int
	eng := &Engine{
		Workers:  4,
		BaseSeed: 1,
		OnCellDone: func(done, total int, r CellResult) {
			if total != 4 {
				t.Errorf("total = %d, want 4", total)
			}
			calls = append(calls, done)
		},
	}
	if _, err := eng.RunContext(context.Background(), grid); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 4 {
		t.Fatalf("callback ran %d times, want 4", len(calls))
	}
	for i, d := range calls {
		if d != i+1 {
			t.Errorf("done sequence %v not monotonic", calls)
			break
		}
	}
}

// BenchmarkCampaign16Cells runs a 16-cell grid at full parallelism — the
// scaling target the CI bench job tracks (compare against 16x the
// single-cell BenchmarkSimCell cost in the repo root to see the speedup).
func BenchmarkCampaign16Cells(b *testing.B) {
	grid := Grid{
		Policies:   []sim.Policy{sim.PolicyNoFan, sim.PolicyReactive},
		Benchmarks: []string{"dijkstra", "patricia"},
		Seeds:      []int64{1, 2, 3, 4},
	}
	eng := &Engine{BaseSeed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := eng.RunContext(context.Background(), grid)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Failures()) != 0 {
			b.Fatalf("failures:\n%s", rep.Summary())
		}
	}
}
