package cli

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/client"
	"repro/internal/controlapi"
	"repro/internal/store"
)

// RunRemote is the -addr thin-client path of the fleet and campaign CLIs:
// submit req as a run of the given kind (controlapi.KindFleet or
// KindCampaign) to the reprod daemon at addr, mirror the in-process
// progress/store/summary lines from the event stream (the daemon
// pre-renders every line's fields, so the bytes match), fetch the
// byte-identical report exports, and exit with the in-process codes: 130
// when the run was cancelled, 1 when cells failed. Cancelling ctx cancels
// the run server-side and keeps following: the daemon finalizes it with a
// partial report, which is still exported before exiting 130.
func RunRemote(ctx context.Context, tool, addr, tenant, kind string, req controlapi.SubmitRequest, jsonOut, csvOut string, quiet bool) error {
	cl := client.New(addr)
	cl.Tenant = tenant
	submit := cl.SubmitFleet
	if kind == controlapi.KindCampaign {
		submit = cl.SubmitCampaign
	}
	info, err := submit(ctx, req)
	if err != nil {
		return err
	}
	// Follow on a background context: an interrupt must not sever the
	// stream — it cancels the run server-side, and the stream then delivers
	// the partial run's done event.
	go func() {
		<-ctx.Done()
		cl.Cancel(context.Background(), info.ID)
	}()
	done, err := cl.Follow(context.Background(), info.ID, 0, func(ev controlapi.Event) error {
		if !quiet && ev.Type == controlapi.EventProgress {
			PrintCell(tool, ev.Done, ev.Total, ev.Cell, ev.Err, ev.Cached)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if done.StoreDir != "" {
		PrintStore(tool, done.StoreDir, store.Stats{Hits: done.Hits, Misses: done.Misses})
	}
	if done.State == controlapi.StateFailed {
		return errors.New(done.RunErr)
	}
	// A run cancelled before any cell could start has no report — mirror
	// the in-process "cancelled during characterization" exit.
	if done.Summary == "" && done.State == controlapi.StateCancelled {
		fmt.Fprintf(os.Stderr, "%s: %s\n", tool, done.RunErr)
		os.Exit(130)
	}
	fmt.Print(done.Summary)
	for _, out := range []struct{ format, path string }{{"json", jsonOut}, {"csv", csvOut}} {
		if out.path == "" {
			continue
		}
		b, err := cl.Report(context.Background(), info.ID, out.format)
		if err != nil {
			return err
		}
		if err := os.WriteFile(out.path, b, 0o644); err != nil {
			return err
		}
	}
	if done.State == controlapi.StateCancelled {
		fmt.Fprintf(os.Stderr, "%s: %s\n", tool, done.RunErr)
		os.Exit(130)
	}
	if done.Failures > 0 {
		os.Exit(1)
	}
	return nil
}

// PrintCell writes one per-cell progress line to stderr: "ok", "cached"
// for a cell served from the result store, or "FAILED: " and the error.
func PrintCell(tool string, done, total int, cell, errMsg string, cached bool) {
	status := "ok"
	switch {
	case errMsg != "":
		status = "FAILED: " + errMsg
	case cached:
		status = "cached"
	}
	fmt.Fprintf(os.Stderr, "%s: [%d/%d] %s %s\n", tool, done, total, cell, status)
}

// PrintStore writes the result-store counters line a run ends with.
func PrintStore(tool, dir string, s store.Stats) {
	fmt.Fprintf(os.Stderr, "%s: store %s: %d hits, %d misses (%.0f%% hit rate)\n",
		tool, dir, s.Hits, s.Misses, 100*s.HitRate())
}

// WriteFile creates path and fills it through write, reporting the first
// error of the write or the close.
func WriteFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
