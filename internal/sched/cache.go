package sched

import (
	"context"
	"errors"
	"sync"

	"repro/internal/platform"
	"repro/internal/sim"
)

// Cache is the per-platform device cache each campaign and fleet engine
// keeps: each platform gets one runner and one characterization, built on
// first use and served to every subsequent cell that draws the platform —
// a platform appearing in thousands of cells is characterized exactly
// once. The cache's own lock only guards the map; the expensive
// characterization runs under the entry's lock, so two platforms can
// characterize concurrently without serializing on each other.
//
// The zero value is ready to use. Anchor-device special cases (an engine's
// own runner, injected models, lazy self-characterization) stay with the
// engines — the cache only ever builds registry platforms from scratch.
type Cache struct {
	mu  sync.Mutex
	dev map[string]*device
}

// device is one lazily characterized platform.
type device struct {
	mu     sync.Mutex
	runner *sim.Runner
	models *sim.Characterization
	err    error
}

// Device resolves the named platform to a runner and its characterization,
// characterizing at charSeed on first use (later calls reuse the entry and
// ignore the seed, so callers must pass a consistent seed — the engines
// pass their base seed). Characterization failures are cached and
// re-served, except transient context errors: a cancelled
// characterization caches nothing, so a later call with a live context
// retries instead of inheriting a poisoned "context canceled".
func (c *Cache) Device(ctx context.Context, name string, charSeed int64) (*sim.Runner, *sim.Characterization, error) {
	c.mu.Lock()
	if c.dev == nil {
		c.dev = make(map[string]*device)
	}
	dev, ok := c.dev[name]
	if !ok {
		dev = &device{}
		c.dev[name] = dev
	}
	c.mu.Unlock()
	dev.mu.Lock()
	defer dev.mu.Unlock()
	if dev.runner != nil || dev.err != nil {
		return dev.runner, dev.models, dev.err
	}
	desc, err := platform.ByName(name)
	if err != nil {
		dev.err = err
		return nil, nil, err
	}
	// DTPM cells need the Chapter 4 models; prediction-accuracy accounting
	// uses them under any policy. Characterize with the caller's base seed
	// so the sweep is reproducible.
	runner := sim.NewRunnerFor(desc)
	models, err := runner.Characterize(ctx, charSeed)
	if err != nil {
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			dev.err = err
		}
		return nil, nil, err
	}
	dev.runner, dev.models = runner, models
	return dev.runner, dev.models, nil
}
