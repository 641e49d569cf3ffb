package fleet

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
)

// cellKey is the canonical content of one fleet cell: every coordinate the
// cell's bytes depend on, fully resolved. The scenario's complete spec is
// embedded (not just its name), so editing a library scenario changes the
// key of every cell that drew it — which is exactly what makes "edit one
// scenario in a 3-way mix" recompute only the affected cells. Index is
// deliberately absent: two cells that resolve to identical coordinates are
// the same computation, so they dedupe to one store entry.
type cellKey struct {
	Platform       string        `json:"platform"`
	Scenario       string        `json:"scenario"`
	ScenarioSpec   scenario.Spec `json:"scenario_spec"`
	Seed           int64         `json:"seed"`
	ScenarioSeed   int64         `json:"scenario_seed"`
	AmbientShiftC  float64       `json:"ambient_shift_c"`
	Policy         string        `json:"policy"`
	TMaxC          float64       `json:"tmax_c"`
	ControlPeriodS float64       `json:"control_period_s"`
	Models         string        `json:"models"`
}

// Kind tags of the fleet's store entries. Aggregate cells are binary
// (see appendCellEntry); the tag names the payload format, so entries of
// the former JSON format ("fleet-cell") live under other digests and read
// as plain misses, and an old binary and a new one sharing a store never
// overwrite each other's entries.
const (
	kindCell  = "fleet-cell.bin"
	kindTrace = "fleet-trace"
)

// A cell entry is the persisted outcome of one fleet cell: the full
// aggregator state (not just the metrics), because the group merge
// consumes histogram bins and moments — caching anything less could not
// rebuild a warm report byte-identical to a cold one. Its layout:
//
//	magic "FCEL", version byte
//	skin histogram, skin moments, core moments (stats binary codecs)
//	overN, n (uint64), freqFrac (float bits)
//	metrics: completed byte (0/1), exec, energy, avg power, throttle,
//	  perf loss, max skin, max core (float bits), samples (uint64)
//
// Fixed-width fields are little-endian, and floats travel as their bit
// patterns, so every value round-trips bit-exactly.
const (
	cellMagic   = "FCEL"
	cellVersion = 1
	// cellTailLen is the fixed-width tail after the moments: three
	// aggregate scalars, the completed byte, seven metric floats and the
	// sample count.
	cellTailLen = 3*8 + 1 + 7*8 + 8
)

// appendCellEntry appends the entry encoding of one cell's aggregator and
// metrics to b.
func appendCellEntry(b []byte, a *cellAgg, m *CellMetrics) []byte {
	b = append(b, cellMagic...)
	b = append(b, cellVersion)
	// The stats appenders never fail.
	b, _ = a.skin.AppendBinary(b)
	b, _ = a.skinM.AppendBinary(b)
	b, _ = a.coreM.AppendBinary(b)
	b = binary.LittleEndian.AppendUint64(b, a.overN)
	b = binary.LittleEndian.AppendUint64(b, a.n)
	b = appendFloat(b, a.freqFrac)
	completed := byte(0)
	if m.Completed {
		completed = 1
	}
	b = append(b, completed)
	for _, v := range [...]float64{m.ExecS, m.EnergyJ, m.AvgPowerW, m.ThrottleFrac, m.PerfLossFrac, m.MaxSkinC, m.MaxCoreC} {
		b = appendFloat(b, v)
	}
	return binary.LittleEndian.AppendUint64(b, m.Samples)
}

// decodeCellEntry decodes one entry into a (whose skin histogram must have
// the report's shape — an entry of any other shape is rejected) and m. It
// is strict: a wrong magic or version, a foreign histogram shape, a
// truncated field, a completed byte other than 0/1, or trailing bytes are
// all errors, so a payload it accepts re-encodes to the same bytes.
func decodeCellEntry(data []byte, a *cellAgg, m *CellMetrics) error {
	if len(data) < len(cellMagic)+1 || string(data[:len(cellMagic)]) != cellMagic {
		return errors.New("fleet: cell entry: bad magic")
	}
	if v := data[len(cellMagic)]; v != cellVersion {
		return fmt.Errorf("fleet: cell entry: version %d, want %d", v, cellVersion)
	}
	rest, err := a.skin.DecodeBinary(data[len(cellMagic)+1:])
	if err == nil {
		rest, err = a.skinM.DecodeBinary(rest)
	}
	if err == nil {
		rest, err = a.coreM.DecodeBinary(rest)
	}
	if err != nil {
		return fmt.Errorf("fleet: cell entry: %w", err)
	}
	if len(rest) != cellTailLen {
		return fmt.Errorf("fleet: cell entry: tail %d bytes, want %d", len(rest), cellTailLen)
	}
	if rest[24] > 1 {
		return fmt.Errorf("fleet: cell entry: completed byte %d", rest[24])
	}
	u := func(off int) uint64 { return binary.LittleEndian.Uint64(rest[off:]) }
	f := func(off int) float64 { return math.Float64frombits(u(off)) }
	a.overN, a.n, a.freqFrac = u(0), u(8), f(16)
	*m = CellMetrics{
		Completed:    rest[24] == 1,
		ExecS:        f(25),
		EnergyJ:      f(33),
		AvgPowerW:    f(41),
		ThrottleFrac: f(49),
		PerfLossFrac: f(57),
		MaxSkinC:     f(65),
		MaxCoreC:     f(73),
		Samples:      u(81),
	}
	return nil
}

// appendFloat appends v's bit pattern, little-endian.
func appendFloat(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// traceEntry is the persisted outcome of one replayed cell: the run's
// scalar result plus the full per-interval trace in the lossless CSV
// format (shortest-round-trip floats, so the parsed recorder reproduces
// WriteCSV byte-identically).
type traceEntry struct {
	Result   sim.Result `json:"result"`
	TraceCSV string     `json:"trace_csv"`
}

// modelsTagFor names the characterization provenance of a platform's cells.
// Non-anchor platforms are characterized by the platform cache at
// BaseSeed, so their models are a pure function of (platform, BaseSeed)
// and the seed tags them; the anchor platform uses the lazily computed
// anchorTag (the same seed tag when the engine self-characterizes, a
// digest of the injected models otherwise).
func (e *Engine) modelsTagFor(platformName string) string {
	if platformName == e.Runner.Descriptor().Name {
		return e.anchorTag()
	}
	return fmt.Sprintf("charseed:%d", e.BaseSeed)
}

// modelsDigestTag content-addresses an injected characterization.
func modelsDigestTag(c *sim.Characterization) string {
	d, err := store.KeyDigest("models", c)
	if err != nil {
		return "models:unhashable"
	}
	return "models:" + d.String()
}

// cellDigest computes the content address of one cell under a kind tag
// (kindCell for aggregates, kindTrace for replay traces). ok=false means
// the cell cannot be addressed (e.g. its scenario is not resolvable); the
// caller just computes without the store.
func (e *Engine) cellDigest(spec Spec, cfg CellConfig, kind string) (store.Digest, bool) {
	sc, err := scenario.ByName(cfg.Scenario)
	if err != nil {
		return store.Digest{}, false
	}
	key := cellKey{
		Platform:       cfg.Platform,
		Scenario:       cfg.Scenario,
		ScenarioSpec:   sc,
		Seed:           cfg.Seed,
		ScenarioSeed:   cfg.ScenarioSeed,
		AmbientShiftC:  cfg.AmbientShiftC,
		Policy:         spec.Policy,
		TMaxC:          spec.TMaxC,
		ControlPeriodS: spec.ControlPeriodS,
		Models:         e.modelsTagFor(cfg.Platform),
	}
	d, err := store.KeyDigest(kind, key)
	if err != nil {
		return store.Digest{}, false
	}
	return d, true
}

// storedCell is lookup-or-compute for one aggregate cell. A hit decodes
// straight into a pooled aggregator. A computed success is encoded here,
// by the caller's goroutine, and handed to put with the digest the lookup
// already computed — so nothing downstream reads the aggregator, and the
// collector may recycle it the moment it is merged. Without a store (or
// for a cell that cannot be addressed) it just computes.
func (e *Engine) storedCell(ctx context.Context, spec Spec, pol sim.Policy, cfg CellConfig, put func(store.Digest, []byte)) cellOutcome {
	if e.Store == nil {
		return e.runCell(ctx, spec, pol, cfg, false)
	}
	key, ok := e.cellDigest(spec, cfg, kindCell)
	if !ok {
		return e.runCell(ctx, spec, pol, cfg, false)
	}
	if out, ok := e.lookupCell(key, cfg); ok {
		return out
	}
	out := e.runCell(ctx, spec, pol, cfg, false)
	if out.err == "" {
		put(key, appendCellEntry(make([]byte, 0, 512), out.agg, out.metrics))
	}
	return out
}

// lookupCell serves one cell's aggregate outcome from the store. ok=false
// on any miss — never stored, corrupt entry, stale engine, or a payload
// the strict decoder rejects (the store counts that as invalid; the
// recompute's Put heals it).
func (e *Engine) lookupCell(key store.Digest, cfg CellConfig) (cellOutcome, bool) {
	a := aggPool.Get().(*cellAgg)
	m := new(CellMetrics)
	if !e.Store.GetDecoded(key, func(p []byte) error { return decodeCellEntry(p, a, m) }) {
		releaseCellAgg(a)
		return cellOutcome{}, false
	}
	return cellOutcome{cfg: cfg, agg: a, metrics: m, cached: true}, true
}

// lookupTrace serves one replayed cell (full trace) from the store.
func (e *Engine) lookupTrace(spec Spec, cfg CellConfig) (cellOutcome, bool) {
	key, ok := e.cellDigest(spec, cfg, kindTrace)
	if !ok {
		return cellOutcome{}, false
	}
	var ent traceEntry
	if !e.Store.GetJSON(key, &ent) {
		return cellOutcome{}, false
	}
	rec, err := trace.ReadCSV(strings.NewReader(ent.TraceCSV))
	if err != nil {
		return cellOutcome{}, false
	}
	res := ent.Result
	res.Rec = rec
	return cellOutcome{cfg: cfg, agg: &cellAgg{res: &res}, cached: true}, true
}

// putTrace persists one freshly replayed cell: the scalar result plus the
// recorded trace as lossless CSV.
func (e *Engine) putTrace(spec Spec, out cellOutcome) {
	if out.err != "" || out.agg == nil || out.agg.res == nil || out.agg.res.Rec == nil || out.cached {
		return
	}
	key, ok := e.cellDigest(spec, out.cfg, kindTrace)
	if !ok {
		return
	}
	var buf bytes.Buffer
	if err := out.agg.res.Rec.WriteCSV(&buf); err != nil {
		return
	}
	res := *out.agg.res
	res.Rec = nil // the trace travels as CSV, not as a JSON recorder
	_ = e.Store.PutJSON(key, traceEntry{Result: res, TraceCSV: buf.String()})
}
