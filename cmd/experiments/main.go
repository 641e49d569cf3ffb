// Command experiments regenerates the paper's tables and figures from the
// simulated platform.
//
// The regeneration is context-aware: Ctrl-C aborts the characterization
// between its stages and any in-flight simulation between control
// intervals, exiting with the conventional SIGINT code (130).
//
// Usage:
//
//	experiments -list            # show every artifact id
//	experiments -id fig6.9       # regenerate one artifact
//	experiments -all             # regenerate everything (paper order)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/experiments"
)

func main() {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		id      = fs.String("id", "", "experiment id (e.g. fig6.9, tab6.4)")
		all     = fs.Bool("all", false, "run every experiment")
		list    = fs.Bool("list", false, "list experiment ids and exit")
		seed    = fs.Int64("seed", 1, "seed for all stochastic parts")
		workers = fs.Int("workers", 0, "benchmark-run worker pool size (0 = GOMAXPROCS)")
	)
	if err := cli.ParseFlags(fs, os.Args[1:]); err != nil {
		cli.Exit("experiments", err, "")
	}

	if *list {
		fmt.Print(listText())
		return
	}
	if !*all && *id == "" {
		fmt.Fprintln(os.Stderr, "experiments: need -id, -all, or -list")
		os.Exit(2)
	}
	todo, err := selectExperiments(*id, *all)
	if err != nil {
		fatal(err)
	}

	sigCtx, stop := cli.SignalContext()
	defer stop()

	fmt.Fprintln(os.Stderr, "characterizing device (furnace + PRBS system identification)...")
	ctx, err := experiments.NewContext(sigCtx, *seed)
	if err != nil {
		fatal(err)
	}
	ctx.SetWorkers(*workers)

	if err := regenerate(ctx, todo, os.Stdout, os.Stderr); err != nil {
		fatal(err)
	}
}

// regenerate runs each artifact in order, printing its report and a blank
// line to out and one progress line per artifact to progress.
func regenerate(ctx *experiments.Context, todo []experiments.Experiment, out, progress io.Writer) error {
	for n, e := range todo {
		fmt.Fprintf(progress, "experiments: [%d/%d] %s: %s\n", n+1, len(todo), e.ID, e.Title)
		rep, err := e.Run(ctx)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if _, err := fmt.Fprintf(out, "%s\n\n", rep); err != nil {
			return err
		}
	}
	return nil
}

// listText renders the -list output: one "id title" line per artifact, in
// paper order.
func listText() string {
	var b strings.Builder
	for _, e := range experiments.All() {
		fmt.Fprintf(&b, "%-8s %s\n", e.ID, e.Title)
	}
	return b.String()
}

// selectExperiments resolves the -id/-all choice into the artifact list to
// regenerate: every artifact in paper order for -all, the single named one
// otherwise.
func selectExperiments(id string, all bool) ([]experiments.Experiment, error) {
	if all {
		return experiments.All(), nil
	}
	e, err := experiments.ByID(id)
	if err != nil {
		return nil, err
	}
	return []experiments.Experiment{e}, nil
}

func fatal(err error) {
	cli.Exit("experiments", err, "run `experiments -list` for the known ids")
}
