// Package obs is the stdlib-only observability substrate for the LOF
// pipeline: nestable phase tracing with fixed-bucket latency histograms
// and named counters, plus the metric registry and Prometheus text-format
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
	// PhaseScoreMerge is the merged-row cache construction around the query.
	PhaseScoreMerge = "score/merge"
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
	hist         *Histogram
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
		agg = &phaseAgg{hist: NewHistogram(DefaultLatencyBuckets)}
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
	agg.hist.Observe(d)
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

// PhaseStats is the aggregated view of one phase.
type PhaseStats struct {
	// Name is the phase name; Nested(Name) phases measure busy time inside
	// parallel regions.
	Name string
	// Count is the number of recorded spans.
	Count int64
	// Items is the total work items attributed across spans.
	Items int64
	// Total is the summed span duration; Min and Max bound individual spans.
	Total, Min, Max time.Duration
	// Latency is the fixed-bucket histogram of span durations.
	Latency HistogramSnapshot
}

// CounterStat is one named counter value.
type CounterStat struct {
	Name  string
	Value int64
}

// RunStats is a point-in-time snapshot of a tracer: phases in first-seen
// order followed by counters in first-seen order.
type RunStats struct {
	Phases   []PhaseStats
	Counters []CounterStat
}

// Snapshot returns the tracer's current aggregates; nil for a nil tracer.
func (t *Tracer) Snapshot() *RunStats {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := &RunStats{
		Phases:   make([]PhaseStats, 0, len(t.order)),
		Counters: make([]CounterStat, 0, len(t.corder)),
	}
	for _, name := range t.order {
		agg := t.phases[name]
		out.Phases = append(out.Phases, PhaseStats{
			Name: name, Count: agg.count, Items: agg.items,
			Total: agg.total, Min: agg.min, Max: agg.max,
			Latency: agg.hist.Snapshot(),
		})
	}
	for _, name := range t.corder {
		out.Counters = append(out.Counters, CounterStat{Name: name, Value: t.counters[name]})
	}
	return out
}

// Phase returns the named phase's aggregate, if recorded.
func (s *RunStats) Phase(name string) (PhaseStats, bool) {
	if s == nil {
		return PhaseStats{}, false
	}
	for _, p := range s.Phases {
		if p.Name == name {
			return p, true
		}
	}
	return PhaseStats{}, false
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
		if !Nested(p.Name) {
			sum += p.Total
		}
	}
	return sum
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
