package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
)

// update regenerates the golden -all output instead of comparing:
//
//	go test ./cmd/experiments -run TestGoldenAll -update
//
// Regenerate ONLY when a behaviour change is intentional, and say so in
// the commit: the file pins every table and figure the reproduction
// reports, from the characterization through each evaluation run.
var update = flag.Bool("update", false, "regenerate the golden -all output")

// TestGoldenAll pins the full `experiments -all` output at seed 1: a fresh
// characterization and every artifact in paper order must reproduce the
// committed bytes at 1 and 4 workers.
func TestGoldenAll(t *testing.T) {
	golden := filepath.Join("testdata", "golden-all.txt")
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ctx, err := experiments.NewContext(context.Background(), 1)
			if err != nil {
				t.Fatal(err)
			}
			ctx.SetWorkers(workers)
			var out bytes.Buffer
			if err := regenerate(ctx, experiments.All(), &out, io.Discard); err != nil {
				t.Fatal(err)
			}
			if *update && workers == 1 {
				if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("regenerated %s (%d bytes)", golden, out.Len())
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to generate)", err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("-all output diverged from %s:\ngot:\n%s", golden, out.Bytes())
			}
		})
	}
}
