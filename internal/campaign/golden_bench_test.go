package campaign

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// The scenario goldens (golden_test.go) and the fleet golden pin scripted
// runs only. These pin the benchmark path — Table 6.4 workloads whose
// demand comes from the stateful generator, with the §6.3.1 prediction
// accounting on — through both a grid export and a recorded trace.
// Regenerate with -update under the same rules as the scenario goldens.

// goldenBenchGrid is two benchmarks (a single-thread memory-bound network
// code and a two-thread GPU game) under every policy, one replicate.
func goldenBenchGrid() Grid {
	return Grid{
		Policies:   sim.Policies(),
		Benchmarks: []string{"dijkstra", "angrybirds"},
		Seeds:      []int64{1},
	}
}

// TestGoldenBenchmarkGrid pins the campaign grid export (JSON and CSV,
// including the prediction-accuracy columns) at 1 and 4 workers.
func TestGoldenBenchmarkGrid(t *testing.T) {
	jsonFile := filepath.Join("testdata", "golden-bench-grid.json")
	csvFile := filepath.Join("testdata", "golden-bench-grid.csv")
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			eng := &Engine{Workers: workers, Models: testModels(t), BaseSeed: 11}
			rep, err := eng.RunContext(context.Background(), goldenBenchGrid())
			if err != nil {
				t.Fatal(err)
			}
			if f := rep.Failures(); len(f) > 0 {
				t.Fatalf("cells failed: %+v", f)
			}
			var j, c bytes.Buffer
			if err := rep.WriteJSON(&j); err != nil {
				t.Fatal(err)
			}
			if err := rep.WriteCSV(&c); err != nil {
				t.Fatal(err)
			}
			if *update && workers == 1 {
				for file, b := range map[string][]byte{jsonFile: j.Bytes(), csvFile: c.Bytes()} {
					if err := os.WriteFile(file, b, 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}
			for file, got := range map[string][]byte{jsonFile: j.Bytes(), csvFile: c.Bytes()} {
				want, err := os.ReadFile(file)
				if err != nil {
					t.Fatalf("%v (run with -update to generate)", err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("grid export diverged from %s", file)
				}
			}
		})
	}
}

// TestGoldenBenchmarkTrace pins one recorded DTPM benchmark run: every
// output series, the controller's own series, and "predmax_c", the
// prediction-accounting trace timestamped one horizon ahead.
func TestGoldenBenchmarkTrace(t *testing.T) {
	file := filepath.Join("testdata", "golden-bench-matrixmult-dtpm.csv")
	bench, err := workload.ByName("matrixmult")
	if err != nil {
		t.Fatal(err)
	}
	ch := testModels(t)
	res, err := sim.NewRunner().Run(context.Background(), sim.Options{
		Policy:        sim.PolicyDTPM,
		Bench:         bench,
		Seed:          5,
		ControlPeriod: 0.5,
		Record:        true,
		Model:         ch.Thermal,
		PowerModel:    ch.Power,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rec.Series("predmax_c") == nil {
		t.Fatal("trace has no predmax_c series")
	}
	var buf bytes.Buffer
	if err := res.Rec.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(file, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace diverged from %s\n%s", file, goldenDiff(want, buf.Bytes()))
	}
}
