package trace

import (
	"context"
	"encoding/binary"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Config parameterizes a Collector.
type Config struct {
	// Service names this process in recorded spans ("lofserve",
	// "lofcoord"), so a cross-process trace reads unambiguously even when
	// span buffers from several processes are viewed side by side.
	Service string
	// Capacity bounds the ring buffer of finished spans; the oldest span
	// is evicted when a new one arrives at capacity. Default 4096.
	Capacity int
	// Sample is the head-sampling probability for traces rooted at this
	// process, in [0, 1]. The decision is a pure function of the trace ID,
	// so re-rooted or replayed traces sample identically. Zero records
	// only error and slow spans.
	Sample float64
	// SlowThreshold, when positive, records any span at least this slow
	// regardless of the head-sampling decision — the slow-query log.
	SlowThreshold time.Duration
}

// CollectorStats counts what the collector did, for /metrics.
type CollectorStats struct {
	// Started counts spans begun under this collector, recorded or not.
	Started uint64
	// Recorded counts spans kept in the ring buffer.
	Recorded uint64
	// Dropped counts recorded spans later evicted by the ring bound.
	Dropped uint64
}

// Recorded is one finished span as stored and served by the collector;
// field names are the /v1/debug/traces JSON contract.
type Recorded struct {
	TraceID    string            `json:"traceId"`
	SpanID     string            `json:"spanId"`
	ParentID   string            `json:"parentId,omitempty"`
	Name       string            `json:"name"`
	Service    string            `json:"service,omitempty"`
	Start      time.Time         `json:"start"`
	DurationMS float64           `json:"durationMillis"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Error      string            `json:"error,omitempty"`
}

// Collector owns one process's span ring buffer. A nil *Collector is the
// disabled state: StartRequest returns a nil span, and nil spans no-op
// every method, so call sites never branch on whether tracing is on.
type Collector struct {
	cfg Config

	started  atomic.Uint64
	recorded atomic.Uint64
	dropped  atomic.Uint64

	mu   sync.Mutex
	buf  []Recorded
	next int  // ring write cursor
	full bool // buf has wrapped at least once
}

// NewCollector returns a collector with cfg's limits (zero fields take
// defaults, Sample is clamped into [0, 1]).
func NewCollector(cfg Config) *Collector {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 4096
	}
	if cfg.Sample < 0 {
		cfg.Sample = 0
	}
	if cfg.Sample > 1 {
		cfg.Sample = 1
	}
	return &Collector{cfg: cfg, buf: make([]Recorded, 0, cfg.Capacity)}
}

// Stats snapshots the collector counters.
func (c *Collector) Stats() CollectorStats {
	if c == nil {
		return CollectorStats{}
	}
	return CollectorStats{
		Started:  c.started.Load(),
		Recorded: c.recorded.Load(),
		Dropped:  c.dropped.Load(),
	}
}

// sampled is the head-sampling decision for a trace rooted here: a
// deterministic hash of the trace ID against the configured probability,
// so the same trace ID always decides the same way.
func (c *Collector) sampled(t TraceID) bool {
	p := c.cfg.Sample
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	u := binary.BigEndian.Uint64(t[:8])
	return float64(u>>11)/(1<<53) < p
}

// newSpan starts a span under this collector.
func (c *Collector) newSpan(name string, trace TraceID, parent SpanID, sampled bool) *Span {
	c.started.Add(1)
	return &Span{
		c:      c,
		sc:     SpanContext{TraceID: trace, SpanID: NewSpanID(), Sampled: sampled},
		parent: parent,
		name:   name,
		start:  time.Now(),
	}
}

// StartRequest begins the server-side span for an inbound request:
// continuing the remote trace when header carries a valid traceparent
// (honoring its sampling flag), else rooting a fresh trace with the local
// head-sampling decision. The returned context carries the span for
// StartSpan and outbound Inject. A nil collector returns (nil, ctx).
func (c *Collector) StartRequest(ctx context.Context, name, header string) (*Span, context.Context) {
	if c == nil {
		return nil, ctx
	}
	var sp *Span
	if remote, ok := Parse(header); ok {
		sp = c.newSpan(name, remote.TraceID, remote.SpanID, remote.Sampled)
	} else {
		tid := NewTraceID()
		sp = c.newSpan(name, tid, SpanID{}, c.sampled(tid))
	}
	return sp, ContextWithSpan(ctx, sp)
}

// StartSpan begins a child of the span in ctx, returning the child and a
// context carrying it. Without an active span (tracing disabled, or the
// request arrived through an untraced path) it returns (nil, ctx).
func StartSpan(ctx context.Context, name string) (*Span, context.Context) {
	parent := SpanFrom(ctx)
	if parent == nil {
		return nil, ctx
	}
	sp := parent.Child(name)
	return sp, ContextWithSpan(ctx, sp)
}

// record appends one finished span to the ring.
func (c *Collector) record(rec Recorded) {
	rec.Service = c.cfg.Service
	c.recorded.Add(1)
	c.mu.Lock()
	if len(c.buf) < cap(c.buf) {
		c.buf = append(c.buf, rec)
	} else {
		c.buf[c.next] = rec
		c.full = true
		c.dropped.Add(1)
	}
	c.next = (c.next + 1) % cap(c.buf)
	c.mu.Unlock()
}

// Query filters a Spans read. The zero value returns everything.
type Query struct {
	// TraceID, when non-empty, selects spans of that trace only (32 hex).
	TraceID string
	// MinDuration drops spans faster than this.
	MinDuration time.Duration
	// ErrorOnly drops spans that finished without an error.
	ErrorOnly bool
}

// Spans returns the buffered spans matching q, oldest first. The returned
// slice is a copy; attrs maps are shared but never mutated after End.
func (c *Collector) Spans(q Query) []Recorded {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	ordered := make([]Recorded, 0, len(c.buf))
	if c.full {
		ordered = append(ordered, c.buf[c.next:]...)
		ordered = append(ordered, c.buf[:c.next]...)
	} else {
		ordered = append(ordered, c.buf...)
	}
	c.mu.Unlock()
	out := ordered[:0]
	for _, rec := range ordered {
		if q.TraceID != "" && rec.TraceID != q.TraceID {
			continue
		}
		if q.MinDuration > 0 && rec.DurationMS < float64(q.MinDuration)/float64(time.Millisecond) {
			continue
		}
		if q.ErrorOnly && rec.Error == "" {
			continue
		}
		out = append(out, rec)
	}
	return out
}

// Span is one in-flight operation. All methods are nil-safe no-ops so
// tracing-disabled call paths pay nothing beyond the nil check.
type Span struct {
	c      *Collector
	sc     SpanContext
	parent SpanID
	name   string
	start  time.Time

	mu     sync.Mutex
	attrs  map[string]string
	errMsg string
	ended  bool
}

// Context returns the span's propagation context (zero when s is nil).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// TraceIDString returns the span's trace ID in hex, "" when s is nil —
// the exemplar form metrics record.
func (s *Span) TraceIDString() string {
	if s == nil {
		return ""
	}
	return s.sc.TraceID.String()
}

// Child begins a child span, inheriting the trace ID and sampling
// decision. Nil receiver returns nil.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.c.newSpan(name, s.sc.TraceID, s.sc.SpanID, s.sc.Sampled)
}

// SetAttr attaches a string attribute.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		if s.attrs == nil {
			s.attrs = make(map[string]string, 4)
		}
		s.attrs[key] = value
	}
	s.mu.Unlock()
}

// SetAttrInt attaches an integer attribute.
func (s *Span) SetAttrInt(key string, value int64) {
	s.SetAttr(key, strconv.FormatInt(value, 10))
}

// SetError marks the span failed; error spans are always recorded,
// sampled or not.
func (s *Span) SetError(msg string) {
	if s == nil || msg == "" {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.errMsg = msg
	}
	s.mu.Unlock()
}

// End finishes the span with the elapsed wall time. The span is recorded
// when its trace is sampled, it carries an error, or it crossed the slow
// threshold; otherwise it is discarded. End is idempotent.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.EndIn(time.Since(s.start))
}

// EndIn finishes the span with an explicit duration — how synthetic spans
// (scoring phases, stream pipeline stages) report busy time measured
// elsewhere.
func (s *Span) EndIn(d time.Duration) {
	if s == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	errMsg, attrs := s.errMsg, s.attrs
	s.mu.Unlock()
	keep := s.sc.Sampled || errMsg != "" ||
		(s.c.cfg.SlowThreshold > 0 && d >= s.c.cfg.SlowThreshold)
	if !keep {
		return
	}
	rec := Recorded{
		TraceID:    s.sc.TraceID.String(),
		SpanID:     s.sc.SpanID.String(),
		Name:       s.name,
		Start:      s.start,
		DurationMS: float64(d) / float64(time.Millisecond),
		Attrs:      attrs,
		Error:      errMsg,
	}
	if !s.parent.IsZero() {
		rec.ParentID = s.parent.String()
	}
	s.c.record(rec)
}
