package campaign

import (
	"bytes"
	"context"
	"encoding/csv"
	"strings"
	"testing"

	"repro/internal/platform"
	"repro/internal/sim"
)

// TestPlatformAxisSweepDeterministic is the heterogeneous-fleet acceptance
// case: a campaign sweeping two non-default platform profiles × policies ×
// scenarios must run every cell (each platform characterized once, models
// shared by its cells) and export byte-identically at any worker count,
// with the platform recorded in its own CSV column.
func TestPlatformAxisSweepDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("per-platform characterization is slow")
	}
	grid := Grid{
		Policies:  []sim.Policy{sim.PolicyNoFan, sim.PolicyDTPM},
		Scenarios: []string{"cold-start"},
		Platforms: []string{"fanless-phone", "tablet-8big"},
	}
	var exports [][]byte
	for _, workers := range []int{1, 4} {
		eng := &Engine{Workers: workers, BaseSeed: 7}
		rep, err := eng.RunContext(context.Background(), grid)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range rep.Cells {
			if c.Err != "" {
				t.Fatalf("cell %s failed: %s", c.Cell, c.Err)
			}
		}
		var csvBuf, jsonBuf bytes.Buffer
		if err := rep.WriteCSV(&csvBuf); err != nil {
			t.Fatal(err)
		}
		if err := rep.WriteJSON(&jsonBuf); err != nil {
			t.Fatal(err)
		}
		exports = append(exports, append(csvBuf.Bytes(), jsonBuf.Bytes()...))
	}
	if !bytes.Equal(exports[0], exports[1]) {
		t.Fatal("platform-axis campaign exports differ between 1 and 4 workers")
	}

	// The platform column must carry each cell's profile.
	rows, err := csv.NewReader(bytes.NewReader(exports[0][:bytes.IndexByte(exports[0], '{')])).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	col := -1
	for i, name := range rows[0] {
		if name == "platform" {
			col = i
		}
	}
	if col < 0 {
		t.Fatalf("no platform column in header %v", rows[0])
	}
	seen := map[string]int{}
	for _, row := range rows[1:] {
		seen[row[col]]++
	}
	if seen["fanless-phone"] != 2 || seen["tablet-8big"] != 2 {
		t.Fatalf("platform column distribution = %v, want 2 cells each", seen)
	}
}

// TestPlatformAxisDefaultStreamPreserved pins the compatibility contract:
// spelling the default platform out (or leaving the axis empty) must not
// change any cell's derived seed — pre-platform-axis campaigns replay
// byte-identically.
func TestPlatformAxisDefaultStreamPreserved(t *testing.T) {
	base := Cell{Policy: sim.PolicyFan, Benchmark: "dijkstra", Governor: "ondemand", Seed: 3, TMax: 63}
	implicit := base
	explicit := base
	explicit.Platform = platform.DefaultName
	if DeriveSeed(1, implicit) != DeriveSeed(1, explicit) {
		t.Fatal("explicit default platform changed the derived seed")
	}
	other := base
	other.Platform = "tablet-8big"
	if DeriveSeed(1, other) == DeriveSeed(1, base) {
		t.Fatal("non-default platform shares the default noise stream")
	}
}

// TestPlatformAxisUnknownPlatformCollected: a bad platform name is a
// per-cell error, never a sweep abort.
func TestPlatformAxisUnknownPlatformCollected(t *testing.T) {
	eng := &Engine{Workers: 1, BaseSeed: 1}
	rep, err := eng.RunContext(context.Background(), Grid{
		Policies:   []sim.Policy{sim.PolicyNoFan},
		Benchmarks: []string{"dijkstra"},
		Platforms:  []string{"no-such-soc"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 1 || rep.Cells[0].Err == "" {
		t.Fatalf("unknown platform not collected: %+v", rep.Cells)
	}
	if !strings.Contains(rep.Cells[0].Err, "no-such-soc") {
		t.Fatalf("error does not name the platform: %s", rep.Cells[0].Err)
	}
}

// TestEngineDeviceIsTheImplicitPlatform: an engine built around a
// non-default device must run empty-platform cells on THAT device and
// export its real platform name — never silently fall back to the
// registry default.
func TestEngineDeviceIsTheImplicitPlatform(t *testing.T) {
	desc, err := platform.ByName("fanless-phone")
	if err != nil {
		t.Fatal(err)
	}
	eng := &Engine{Workers: 1, Runner: sim.NewRunnerFor(desc), BaseSeed: 1}
	rep, err := eng.RunContext(context.Background(), Grid{
		Policies:   []sim.Policy{sim.PolicyNoFan},
		Benchmarks: []string{"dijkstra"},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := rep.Cells[0]
	if c.Err != "" {
		t.Fatal(c.Err)
	}
	if c.Cell.Platform != "fanless-phone" {
		t.Fatalf("cell ran on %q, want the engine's fanless-phone device", c.Cell.Platform)
	}
	// Cross-check the physics: the default board draws ~1.5 W of base
	// platform power, the phone 0.9 W; a silent exynos fallback would show
	// up here.
	def, err := (&Engine{Workers: 1, BaseSeed: 1}).RunContext(context.Background(), Grid{
		Policies:   []sim.Policy{sim.PolicyNoFan},
		Benchmarks: []string{"dijkstra"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if def.Cells[0].Cell.Platform != platform.DefaultName {
		t.Fatalf("default engine exported platform %q", def.Cells[0].Cell.Platform)
	}
	if c.Metrics.AvgPower >= def.Cells[0].Metrics.AvgPower {
		t.Fatalf("fanless-phone power %.2f W not below exynos %.2f W — cell likely ran on the wrong device",
			c.Metrics.AvgPower, def.Cells[0].Metrics.AvgPower)
	}
}

func TestUsesDefaultPlatform(t *testing.T) {
	cases := []struct {
		platforms []string
		want      bool
	}{
		{nil, true},
		{[]string{""}, true},
		{[]string{platform.DefaultName}, true},
		{[]string{"fanless-phone"}, false},
		{[]string{"fanless-phone", platform.DefaultName}, true},
	}
	for _, c := range cases {
		if got := (Grid{Platforms: c.platforms}).UsesDefaultPlatform(); got != c.want {
			t.Errorf("UsesDefaultPlatform(%v) = %v, want %v", c.platforms, got, c.want)
		}
	}
}
