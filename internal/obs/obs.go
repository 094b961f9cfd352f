// Package obs is the stdlib-only observability substrate for the LOF
// pipeline: nestable phase tracing with named counters, summarized as the
// RunStats record that lof.Result.Stats and lofcli -stats report, plus the metric registry and Prometheus text-format
// exposition behind the /metrics endpoints of lofserve and lofcoord.
//
// The paper's entire Section 7 evaluation is a performance story — index
// build vs. kNN materialization vs. the per-MinPts two-scan LOF step —
// and this package makes those phases measurable from the outside without
// perturbing them: a nil *Tracer (the default) is a no-op on every method,
// allocates nothing, and performs no time measurement, so the fitted
// results stay bit-identical whether tracing is enabled or not.
//
// Phase names form a two-level hierarchy separated by '/': top-level
// phases ("materialize", "sweep") are measured serially on the
// coordinating goroutine and sum to the pipeline's wall-clock time;
// nested phases ("sweep/lrd") measure busy time inside parallel regions
// and can exceed wall clock when the worker pool overlaps them.
package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Canonical phase names recorded by the pipeline. Nested phases (those
// containing '/') run inside parallel regions; their totals are busy time,
// not wall time.
const (
	// PhaseIngest is input validation and conversion to the flat point set.
	PhaseIngest = "ingest"
	// PhaseIndexBuild is spatial index construction.
	PhaseIndexBuild = "index_build"
	// PhaseMaterialize is step 1: the kNN materialization of database M.
	PhaseMaterialize = "materialize"
	// PhaseSweep is step 2: the MinPts-range sweep (both scans, all values).
	PhaseSweep = "sweep"
	// PhaseSweepLRD is scan 1 of one MinPts value: local reachability
	// densities.
	PhaseSweepLRD = "sweep/lrd"
	// PhaseSweepLOF is scan 2 of one MinPts value: LOF from densities.
	PhaseSweepLOF = "sweep/lof"
	// PhaseAggregate folds per-MinPts values into final scores.
	PhaseAggregate = "aggregate"
	// PhaseScore is one out-of-sample query scored against a fitted model.
	PhaseScore = "score"
	// PhaseScoreKNN is the query point's own neighborhood lookup.
	PhaseScoreKNN = "score/knn"
	// PhaseScoreMerge is the construction of the query's two-hop merged-row
	// closure.
	PhaseScoreMerge = "score/merge"
	// PhaseScoreEval is the one-pass evaluation of the query's LOF at every
	// MinPts in the range over that closure.
	PhaseScoreEval = "score/eval"
)

// Canonical counter names.
const (
	// CounterIndexFallback counts auto-selected indexes that degraded to the
	// linear scan (e.g. a VA-file rejecting a non-boundable metric).
	CounterIndexFallback = "index_fallback_total"
	// CounterDistinct counts fits run with k-distinct-distance neighborhoods.
	CounterDistinct = "distinct_mode_total"
	// CounterKNNQueries counts kNN index queries issued during the fit.
	CounterKNNQueries = "knn_queries_total"
	// CounterRangeQueries counts range index queries issued during the fit.
	CounterRangeQueries = "range_queries_total"
	// CounterCursors counts index cursors created during the fit — one per
	// pool chunk on the materialization hot path.
	CounterCursors = "index_cursors_total"
	// CounterCursorReuse counts queries served by a reused cursor (every
	// query after a cursor's first), the allocation-free path.
	CounterCursorReuse = "cursor_reuse_total"
	// CounterPoolTasks counts parallel regions entered on the worker pool.
	CounterPoolTasks = "pool_tasks_total"
	// CounterPoolChunks counts chunks dispatched across those regions.
	CounterPoolChunks = "pool_chunks_total"
	// CounterPoolBorrows counts spare-worker tokens borrowed from the pool.
	CounterPoolBorrows = "pool_borrows_total"
)

// Nested reports whether a phase name denotes a nested (parallel-region)
// phase rather than a top-level coordinator phase.
func Nested(name string) bool { return strings.Contains(name, "/") }

// Tracer aggregates phase spans and counters. All methods are safe for
// concurrent use and safe on a nil receiver, where they do nothing; the
// pipeline threads a nil tracer by default, so tracing costs one pointer
// comparison per phase when disabled.
type Tracer struct {
	mu       sync.Mutex
	phases   map[string]*phaseAgg
	order    []string
	counters map[string]int64
	corder   []string
}

type phaseAgg struct {
	count, items int64
	total        time.Duration
	min, max     time.Duration
}

// NewTracer returns an empty tracer ready to record.
func NewTracer() *Tracer {
	return &Tracer{
		phases:   make(map[string]*phaseAgg),
		counters: make(map[string]int64),
	}
}

// Phase starts a span for the named phase. End the returned span to record
// it; a nil tracer returns a nil span, which is itself a no-op. The phase
// is registered at start so snapshot order follows when phases begin —
// a nested phase like sweep/lrd lists after its enclosing sweep even
// though the enclosing span ends last.
func (t *Tracer) Phase(name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.ensure(name)
	t.mu.Unlock()
	return &Span{t: t, name: name, start: time.Now()}
}

// ensure registers the phase aggregate under t.mu.
func (t *Tracer) ensure(name string) *phaseAgg {
	agg, ok := t.phases[name]
	if !ok {
		agg = &phaseAgg{}
		t.phases[name] = agg
		t.order = append(t.order, name)
	}
	return agg
}

// Count adds delta to the named counter. No-op on a nil tracer.
func (t *Tracer) Count(name string, delta int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if _, ok := t.counters[name]; !ok {
		t.corder = append(t.corder, name)
	}
	t.counters[name] += delta
	t.mu.Unlock()
}

func (t *Tracer) record(name string, d time.Duration, items int64) {
	t.mu.Lock()
	agg := t.ensure(name)
	if agg.count == 0 || d < agg.min {
		agg.min = d
	}
	agg.count++
	agg.items += items
	agg.total += d
	if d > agg.max {
		agg.max = d
	}
	t.mu.Unlock()
}

// Span is one in-flight phase measurement. The zero of use is: obtain from
// Tracer.Phase, optionally AddItems, then End exactly once. All methods are
// no-ops on a nil span.
type Span struct {
	t     *Tracer
	name  string
	start time.Time
	items int64
}

// AddItems attributes n work items (points, MinPts values, queries) to the
// span, reported as RunStats items and rates.
func (s *Span) AddItems(n int) {
	if s == nil {
		return
	}
	s.items += int64(n)
}

// End records the span into its tracer.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.t.record(s.name, time.Since(s.start), s.items)
}

// PhaseStat reports the aggregated timings of one pipeline phase. Phase
// names containing '/' (such as "sweep/lrd") are nested inside parallel
// regions: their totals are busy time summed across workers and may exceed
// the wall-clock time of their enclosing phase. Top-level phases run
// serially on the coordinating goroutine, so their totals sum to the
// pipeline's wall-clock time.
type PhaseStat struct {
	// Name identifies the phase: ingest, index_build, materialize, sweep,
	// sweep/lrd, sweep/lof, aggregate, score, score/knn, score/merge,
	// score/eval.
	Name string `json:"name"`
	// Count is the number of times the phase ran.
	Count int64 `json:"count"`
	// Items is the total work items processed (points, MinPts values or
	// queries, depending on the phase); zero when not applicable.
	Items int64 `json:"items,omitempty"`
	// Total, Min and Max are span durations in nanoseconds.
	Total time.Duration `json:"totalNS"`
	Min   time.Duration `json:"minNS"`
	Max   time.Duration `json:"maxNS"`
}

// Nested reports whether the phase ran inside a parallel region, making
// Total a busy-time figure rather than wall-clock time.
func (p PhaseStat) Nested() bool { return Nested(p.Name) }

// CounterStat reports one pipeline counter.
type CounterStat struct {
	// Name identifies the counter, e.g. knn_queries_total or
	// pool_chunks_total.
	Name string `json:"name"`
	// Value is the accumulated count.
	Value int64 `json:"value"`
}

// RunStats is the observability record of a traced run: per-phase timings
// in first-seen (pipeline) order followed by counters in first-seen order.
type RunStats struct {
	Phases   []PhaseStat   `json:"phases"`
	Counters []CounterStat `json:"counters,omitempty"`
}

// Snapshot returns the tracer's current aggregates; nil for a nil tracer.
func (t *Tracer) Snapshot() *RunStats {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := &RunStats{
		Phases:   make([]PhaseStat, 0, len(t.order)),
		Counters: make([]CounterStat, 0, len(t.corder)),
	}
	for _, name := range t.order {
		agg := t.phases[name]
		out.Phases = append(out.Phases, PhaseStat{
			Name: name, Count: agg.count, Items: agg.items,
			Total: agg.total, Min: agg.min, Max: agg.max,
		})
	}
	for _, name := range t.corder {
		out.Counters = append(out.Counters, CounterStat{Name: name, Value: t.counters[name]})
	}
	return out
}

// Phase returns the named phase's aggregate, if recorded.
func (s *RunStats) Phase(name string) (PhaseStat, bool) {
	if s == nil {
		return PhaseStat{}, false
	}
	for _, p := range s.Phases {
		if p.Name == name {
			return p, true
		}
	}
	return PhaseStat{}, false
}

// Counter returns the named counter's value, zero if never counted.
func (s *RunStats) Counter(name string) int64 {
	if s == nil {
		return 0
	}
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// TopLevelTotal sums the durations of top-level (non-nested) phases. These
// run serially on the coordinating goroutine, so the sum tracks the traced
// pipeline's wall-clock time.
func (s *RunStats) TopLevelTotal() time.Duration {
	if s == nil {
		return 0
	}
	var sum time.Duration
	for _, p := range s.Phases {
		if !p.Nested() {
			sum += p.Total
		}
	}
	return sum
}

// WriteTable renders the stats as an aligned text table: one row per phase
// with share-of-total for top-level phases, then the counters. It is the
// one renderer behind lofcli -stats and lofexp -stats.
func (s *RunStats) WriteTable(w io.Writer) error {
	if s == nil {
		_, err := fmt.Fprintln(w, "no run stats (fit without Trace)")
		return err
	}
	total := s.TopLevelTotal()
	tw := &tableWriter{w: w}
	tw.row("PHASE", "COUNT", "ITEMS", "TOTAL", "SHARE", "RATE")
	for _, p := range s.Phases {
		share := "-"
		if !p.Nested() && total > 0 {
			share = fmt.Sprintf("%5.1f%%", 100*float64(p.Total)/float64(total))
		}
		rate := "-"
		if p.Items > 0 && p.Total > 0 {
			rate = fmt.Sprintf("%.0f items/s", float64(p.Items)/p.Total.Seconds())
		}
		name := p.Name
		if p.Nested() {
			name = "  " + name // indent under the enclosing top-level phase
		}
		tw.row(name, fmt.Sprint(p.Count), fmt.Sprint(p.Items), fmtDuration(p.Total), share, rate)
	}
	tw.row("total", "", "", fmtDuration(total), "100.0%", "")
	if err := tw.flush(); err != nil {
		return err
	}
	if len(s.Counters) > 0 {
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
		ct := &tableWriter{w: w}
		ct.row("COUNTER", "VALUE")
		for _, c := range s.Counters {
			ct.row(c.Name, fmt.Sprint(c.Value))
		}
		return ct.flush()
	}
	return nil
}

// fmtDuration rounds durations to a readable precision without losing the
// sub-millisecond phases entirely.
func fmtDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	default:
		return d.String()
	}
}

// tableWriter accumulates rows and renders them with per-column alignment;
// small enough that text/tabwriter would be overkill.
type tableWriter struct {
	w    io.Writer
	rows [][]string
}

func (t *tableWriter) row(cells ...string) { t.rows = append(t.rows, cells) }

func (t *tableWriter) flush() error {
	widths := make([]int, 0, 8)
	for _, r := range t.rows {
		for i, c := range r {
			if i >= len(widths) {
				widths = append(widths, 0)
			}
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	for _, r := range t.rows {
		b.Reset()
		for i, c := range r {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(r)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		if _, err := fmt.Fprintln(t.w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// defaultTracer is the process-default tracer consulted by pipeline stages
// that are handed no explicit tracer. It exists for CLI-style callers
// (lofexp -stats) that drive internal packages directly; libraries should
// thread tracers explicitly.
var defaultTracer atomic.Pointer[Tracer]

// Default returns the process-default tracer, nil unless SetDefault was
// called.
func Default() *Tracer { return defaultTracer.Load() }

// SetDefault installs t as the process-default tracer; pass nil to disable.
func SetDefault(t *Tracer) { defaultTracer.Store(t) }

// Resolve returns t, falling back to the process-default tracer when t is
// nil. Pipeline stages call it once per phase boundary.
func Resolve(t *Tracer) *Tracer {
	if t != nil {
		return t
	}
	return Default()
}
