package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/fleet"
	"repro/internal/platform"
)

// platforms is the platform mix of every fleet workload: all three
// registered descriptors.
var platforms = []string{platform.DefaultName, "fanless-phone", "tablet-8big"}

// goldenSpec is the population internal/fleet's golden test pins
// (testdata/golden-fleet.json and .csv), run at base seed 7.
func goldenSpec() fleet.Spec {
	return fleet.Spec{
		Name:           "golden-fleet",
		N:              24,
		Policy:         "dtpm",
		ControlPeriodS: 0.5,
		Platforms: []fleet.Weight{
			{Name: platform.DefaultName, Weight: 2},
			{Name: "fanless-phone", Weight: 1},
			{Name: "tablet-8big", Weight: 1},
		},
		Scenarios: []fleet.Weight{
			{Name: "cold-start", Weight: 3},
			{Name: "bursty-interactive", Weight: 2},
			{Name: "soak-then-sprint", Weight: 1},
		},
		AmbientJitterC: 10,
	}
}

// export is one rendered report: the bytes a CLI writes with -json/-csv.
type export struct{ json, csv []byte }

// exporter is what fleet and campaign reports both provide.
type exporter interface {
	WriteJSON(io.Writer) error
	WriteCSV(io.Writer) error
}

// render captures a report's JSON and CSV exports.
func render(rep exporter) (export, error) {
	var j, c bytes.Buffer
	if err := rep.WriteJSON(&j); err != nil {
		return export{}, err
	}
	if err := rep.WriteCSV(&c); err != nil {
		return export{}, err
	}
	return export{j.Bytes(), c.Bytes()}, nil
}

// sameExport fails with errIncorrect unless got is byte-identical to want.
func sameExport(what string, got, want export) error {
	if !bytes.Equal(got.json, want.json) {
		return fmt.Errorf("%w: %s: JSON report differs (%d vs %d bytes)", errIncorrect, what, len(got.json), len(want.json))
	}
	if !bytes.Equal(got.csv, want.csv) {
		return fmt.Errorf("%w: %s: CSV report differs (%d vs %d bytes)", errIncorrect, what, len(got.csv), len(want.csv))
	}
	return nil
}

// checkGolden is the gate every workload passes before timing: the golden
// population must export exactly the committed golden bytes. The goldens
// are self-consistency references of this simulator, not hardware
// measurements.
func checkGolden(ctx context.Context, e *env) error {
	eng := &fleet.Engine{Workers: e.workers, BaseSeed: 7}
	rep, err := eng.Run(ctx, goldenSpec())
	if err != nil {
		return fmt.Errorf("golden fleet: %w", err)
	}
	got, err := render(rep)
	if err != nil {
		return err
	}
	want, err := readGolden(e.root)
	if err != nil {
		return err
	}
	if err := sameExport("golden fleet", got, want); err != nil {
		return err
	}
	fmt.Fprintln(e.stdout, "gate golden-fleet: ok (report bytes equal internal/fleet/testdata/golden-fleet.{json,csv})")
	return nil
}

func readGolden(root string) (export, error) {
	dir := filepath.Join(root, "internal", "fleet", "testdata")
	j, err := os.ReadFile(filepath.Join(dir, "golden-fleet.json"))
	if err != nil {
		return export{}, err
	}
	c, err := os.ReadFile(filepath.Join(dir, "golden-fleet.csv"))
	if err != nil {
		return export{}, err
	}
	return export{j, c}, nil
}
