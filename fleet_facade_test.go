package repro

import (
	"bytes"
	"context"
	"testing"
)

// facadeFleetSpec is a tiny mixed fleet that still exercises grouping and
// perturbation through the public API.
func facadeFleetSpec() FleetSpec {
	return FleetSpec{
		N:              6,
		Policy:         "reactive", // no models needed: keeps facade tests fast
		ControlPeriodS: 0.5,
		Scenarios: []FleetWeight{
			{Name: "cold-start", Weight: 2},
			{Name: "bursty-interactive", Weight: 1},
		},
		AmbientJitterC: 6,
	}
}

// TestStreamFleetMatchesRunFleet: the streaming form yields one progress
// event per device and collects exactly the batch report, byte for byte.
func TestStreamFleetMatchesRunFleet(t *testing.T) {
	dev := NewDevice()
	spec := facadeFleetSpec()
	batch, err := dev.RunFleet(context.Background(), spec, nil, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	seq, collect, err := dev.StreamFleet(context.Background(), spec, nil, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	events := 0
	for p := range seq {
		events++
		if p.Err != "" {
			t.Errorf("device %d failed: %s", p.Cell.Index, p.Err)
		}
		if p.Metrics == nil && p.Err == "" {
			t.Errorf("device %d: no metrics", p.Cell.Index)
		}
	}
	if events != spec.N {
		t.Errorf("streamed %d events for %d devices", events, spec.N)
	}
	streamed, err := collect()
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := batch.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := streamed.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("streamed report differs from batch report:\n%s\nvs\n%s", b.Bytes(), a.Bytes())
	}
}

// TestStreamFleetWithoutConsuming: calling the collector without touching
// the stream detaches it — the batch mode — and must not deadlock.
func TestStreamFleetWithoutConsuming(t *testing.T) {
	dev := NewDevice()
	_, collect, err := dev.StreamFleet(context.Background(), facadeFleetSpec(), nil, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := collect()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != rep.Cells {
		t.Errorf("completed %d of %d", rep.Completed, rep.Cells)
	}
}

// TestStreamFleetBreakCancels: breaking out of the stream cancels the
// remaining population and the collector reports the partial fleet.
func TestStreamFleetBreakCancels(t *testing.T) {
	dev := NewDevice()
	seq, collect, err := dev.StreamFleet(context.Background(), facadeFleetSpec(), nil, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	for range seq {
		break
	}
	rep, err := collect()
	if err == nil {
		t.Fatal("broken stream reported no cancellation")
	}
	if rep == nil || rep.Completed == 0 || rep.Completed == rep.Cells {
		t.Fatalf("partial fleet: %+v", rep)
	}
}

// TestStreamFleetRejectsBadSpec: validation fails synchronously, before
// any goroutine is spawned.
func TestStreamFleetRejectsBadSpec(t *testing.T) {
	dev := NewDevice()
	if _, _, err := dev.StreamFleet(context.Background(), FleetSpec{N: 0}, nil, 1, 1); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

// TestReplayFleetCellFacade: the replayed device records a full trace and
// matches its derived configuration.
func TestReplayFleetCellFacade(t *testing.T) {
	dev := NewDevice()
	spec := facadeFleetSpec()
	res, cfg, err := dev.ReplayFleetCell(context.Background(), spec, nil, 9, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rec == nil {
		t.Fatal("no trace recorded")
	}
	if want := DeriveFleetCell(spec, 9, 2); cfg != want {
		t.Errorf("replayed config %+v, derived %+v", cfg, want)
	}
	if res.Bench != cfg.Scenario {
		t.Errorf("replay ran %q, cell declares scenario %q", res.Bench, cfg.Scenario)
	}
}

// TestParseFleetSpecFacade: the facade parser is the same strict decoder
// the engine and daemon use.
func TestParseFleetSpecFacade(t *testing.T) {
	spec, err := ParseFleetSpec([]byte(`{"n":2,"control_period_s":0.5,"scenarios":[{"name":"cold-start","weight":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.N != 2 {
		t.Errorf("parsed n=%d", spec.N)
	}
	if _, err := ParseFleetSpec([]byte(`{"n":2,"warp":9}`)); err == nil {
		t.Error("unknown field accepted")
	}
}

// TestFleetOptionsFacade: WithStore tunes execution without changing report
// bytes, and a warm re-run is served from the store.
func TestFleetOptionsFacade(t *testing.T) {
	dev := NewDevice()
	spec := facadeFleetSpec()
	plain, err := dev.RunFleet(context.Background(), spec, nil, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	tuned, err := dev.RunFleet(context.Background(), spec, nil, 2, 9, WithStore(dir))
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := plain.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := tuned.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("options changed report bytes")
	}
	// Warm re-run against the same store: byte-identical again.
	warm, err := dev.RunFleet(context.Background(), spec, nil, 2, 9, WithStore(dir))
	if err != nil {
		t.Fatal(err)
	}
	var c bytes.Buffer
	if err := warm.WriteJSON(&c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Error("warm store run changed report bytes")
	}
}
