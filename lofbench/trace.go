package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lof/internal/trace"
)

// span is one timed interval recorded by a benchmark-owned wrapper: a
// client call, an RPC round trip, a handler, or a direct call into a layer.
// Spans of one request share Req; Parent is the span that caused this one
// (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Path   string `json:"path,omitempty"`
	Start  int64  `json:"start_ns"` // since the recorder started
	End    int64  `json:"end_ns"`
	Batch  int    `json:"batch"` // query-pool batch of a client call, -1 otherwise
	Bytes  int64  `json:"bytes,omitempty"`
	Status int    `json:"status,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run writes them out. A nil
// recorder, or one switched off, records nothing and its wrappers pass
// straight through, which is how the untraced phases run.
type recorder struct {
	t0     time.Time
	on     atomic.Bool
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) active() bool { return r != nil && r.on.Load() }

func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.t0)) }

// add stores a finished span and returns its ID (assigned when zero).
func (r *recorder) add(s span) int64 {
	if s.ID == 0 {
		s.ID = r.nextID.Add(1)
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return s.ID
}

type parentKey struct{}

// parentHeader carries the calling span's ID from a benchmark RoundTripper
// to the benchmark middleware on the far side of the connection.
const parentHeader = "X-Lofbench-Parent"

func parentFrom(ctx context.Context) int64 {
	id, _ := ctx.Value(parentKey{}).(int64)
	return id
}

// call opens a root span for one client request and returns the context to
// issue it under and the function that closes the span. The context
// carries the span as parent and a request ID that the client propagates
// as X-Request-ID, so every span of the request shares it.
func (r *recorder) call(ctx context.Context, name string, batch int) (context.Context, func()) {
	if !r.active() {
		return ctx, func() {}
	}
	id := r.nextID.Add(1)
	req := "r" + strconv.FormatInt(id, 10)
	ctx = context.WithValue(trace.ContextWithRequestID(ctx, req), parentKey{}, id)
	start := time.Now()
	return ctx, func() {
		r.add(span{ID: id, Name: name, Req: req, Start: r.since(start), End: r.since(time.Now()), Batch: batch})
	}
}

// timed runs fn as a direct call into a layer and records it as a span.
func (r *recorder) timed(name, req string, parent int64, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	if r != nil {
		r.add(span{Parent: parent, Name: name, Req: req, Start: r.since(start), End: r.since(end), Batch: -1})
	}
	return end.Sub(start)
}

// transport wraps base so each round trip is a span named name, counting
// request and response body bytes, and tells the far side its span ID.
func (r *recorder) transport(name string, base http.RoundTripper) http.RoundTripper {
	if r == nil {
		return base
	}
	return &tracingTransport{r: r, name: name, base: base}
}

type tracingTransport struct {
	r    *recorder
	name string
	base http.RoundTripper
}

func (t *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.r.active() {
		return t.base.RoundTrip(req)
	}
	id := t.r.nextID.Add(1)
	req = req.Clone(req.Context())
	req.Header.Set(parentHeader, strconv.FormatInt(id, 10))
	s := span{
		ID: id, Parent: parentFrom(req.Context()), Name: t.name, Path: req.URL.Path,
		Req: req.Header.Get(trace.RequestIDHeader), Batch: -1,
	}
	if req.ContentLength > 0 {
		s.Bytes = req.ContentLength
	}
	start := time.Now()
	s.Start = t.r.since(start)
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		s.End = t.r.since(time.Now())
		t.r.add(s)
		return nil, err
	}
	s.Status = resp.StatusCode
	resp.Body = &countingBody{ReadCloser: resp.Body, done: func(n int64) {
		s.Bytes += n
		s.End = t.r.since(time.Now())
		t.r.add(s)
	}}
	return resp, nil
}

// countingBody counts response bytes and closes the RPC span when the
// caller has read and closed the body.
type countingBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// handler wraps h so each request it serves is a span named name, child of
// the caller's RPC span.
func (r *recorder) handler(name string, h http.Handler) http.Handler {
	if r == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.active() {
			h.ServeHTTP(w, req)
			return
		}
		parent, _ := strconv.ParseInt(req.Header.Get(parentHeader), 10, 64)
		id := r.nextID.Add(1)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h.ServeHTTP(sw, req.WithContext(context.WithValue(req.Context(), parentKey{}, id)))
		r.add(span{
			ID: id, Parent: parent, Name: name, Path: req.URL.Path,
			Req: req.Header.Get(trace.RequestIDHeader), Batch: -1, Status: sw.status,
			Start: r.since(start), End: r.since(time.Now()),
		})
	})
}

type statusWriter struct {
	http.ResponseWriter
	status  int
	written bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.written {
		w.status, w.written = code, true
	}
	w.ResponseWriter.WriteHeader(code)
}

// write stores the spans as JSON lines in dir/<workload>-seed<seed>.jsonl.
func (r *recorder) write(dir, workload string, seed int64) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("creating span directory: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed)))
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	r.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// spanIndex answers the per-layer questions over a set of recorded spans.
type spanIndex struct {
	spans []span
	kids  map[int64][]span
}

func (r *recorder) index() *spanIndex {
	r.mu.Lock()
	defer r.mu.Unlock()
	x := &spanIndex{spans: append([]span(nil), r.spans...), kids: map[int64][]span{}}
	for _, s := range x.spans {
		if s.Parent != 0 {
			x.kids[s.Parent] = append(x.kids[s.Parent], s)
		}
	}
	return x
}

// named returns the spans called name whose path is path ("" matches any).
func (x *spanIndex) named(name, path string) []span {
	var out []span
	for _, s := range x.spans {
		if s.Name == name && (path == "" || s.Path == path) {
			out = append(out, s)
		}
	}
	return out
}

// covered is the part of s during which at least one child span ran.
func (x *spanIndex) covered(s span) time.Duration {
	kids := append([]span(nil), x.kids[s.ID]...)
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	cur, curEnd := int64(-1), int64(-1)
	for _, k := range kids {
		lo, hi := max(k.Start, s.Start), min(k.End, s.End)
		if hi <= lo {
			continue
		}
		if lo > curEnd {
			if curEnd > cur {
				total += curEnd - cur
			}
			cur, curEnd = lo, hi
			continue
		}
		curEnd = max(curEnd, hi)
	}
	if curEnd > cur {
		total += curEnd - cur
	}
	return time.Duration(total)
}

// self is s's duration minus the time its children cover.
func (x *spanIndex) self(s span) time.Duration { return s.dur() - x.covered(s) }

// durs and selfs list the durations and self times of spans.
func durs(ss []span) []time.Duration {
	out := make([]time.Duration, len(ss))
	for i, s := range ss {
		out[i] = s.dur()
	}
	return out
}

func (x *spanIndex) selfs(ss []span) []time.Duration {
	out := make([]time.Duration, len(ss))
	for i, s := range ss {
		out[i] = x.self(s)
	}
	return out
}
