// Package pool provides the bounded worker pool shared by every parallel
// stage of the LOF pipeline: k-NN materialization (matdb.Materialize), the
// MinPts sweep and its per-point scans (core.SweepPool), and out-of-sample
// scoring, which fans out per query in Model.ScoreBatch and nowhere else —
// one query is scored start to finish on one worker. Sharing one pool
// across stages bounds the total goroutine fan-out, so nested parallel
// regions — a sweep whose per-value scans also chunk — cannot
// oversubscribe the configured worker count.
//
// The pool hands out "spare worker" tokens. Every parallel region runs on
// the calling goroutine plus however many spare workers it can lend at that
// moment; a nested region that finds no spare workers simply runs inline on
// its caller. This makes nesting deadlock-free by construction: callers
// always make progress, tokens only add concurrency.
//
// A nil *Pool is valid and means "sequential": every method runs the work
// inline on the caller. Parallel execution is deterministic as long as
// callers write results only to index-addressed locations, which is how the
// whole pipeline uses it; the pool never reorders reductions itself.
package pool

import (
	"context"
	"sync"
	"sync/atomic"
)

// Pool bounds the number of goroutines concurrently running work across
// all parallel regions that share it. The zero value is not useful; create
// pools with New.
type Pool struct {
	size  int
	spare chan struct{}

	tasks   atomic.Int64 // parallel regions entered (Chunks calls with n > 0)
	chunks  atomic.Int64 // chunks dispatched, including inline single-chunk runs
	borrows atomic.Int64 // spare-worker tokens borrowed across all regions
}

// Stats is a monotonic snapshot of pool activity since creation, consumed
// by the observability tracer to report how much a run actually fanned out.
type Stats struct {
	// Tasks is the number of parallel regions entered.
	Tasks int64
	// Chunks is the number of work chunks dispatched, counting regions that
	// collapsed to a single inline chunk.
	Chunks int64
	// Borrows is the number of spare-worker tokens borrowed; zero means
	// every region ran inline on its caller.
	Borrows int64
}

// Stats returns cumulative counters; a nil pool reports zeros.
func (p *Pool) Stats() Stats {
	if p == nil {
		return Stats{}
	}
	return Stats{
		Tasks:   p.tasks.Load(),
		Chunks:  p.chunks.Load(),
		Borrows: p.borrows.Load(),
	}
}

// Sub returns the counter deltas from an earlier snapshot.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Tasks:   s.Tasks - prev.Tasks,
		Chunks:  s.Chunks - prev.Chunks,
		Borrows: s.Borrows - prev.Borrows,
	}
}

// New returns a pool that runs at most workers goroutines at once across
// all regions sharing it. Worker counts below 2 return nil — the valid
// "run everything inline" pool.
func New(workers int) *Pool {
	if workers <= 1 {
		return nil
	}
	p := &Pool{size: workers, spare: make(chan struct{}, workers-1)}
	for i := 0; i < workers-1; i++ {
		p.spare <- struct{}{}
	}
	return p
}

// Size returns the configured worker count; a nil pool has size 1.
func (p *Pool) Size() int {
	if p == nil {
		return 1
	}
	return p.size
}

// Chunks splits [0, n) into at most Size() contiguous chunks and runs fn
// on each. Chunk boundaries depend only on n and Size(), never on timing,
// so callers that write results at index-addressed locations get output
// identical to a sequential run. fn must not retain references past the
// call; Chunks returns only after every chunk completes. When a chunk
// panics, no further chunk starts, and Chunks re-panics with that value on
// the caller's goroutine once every running chunk has finished, with the
// borrowed workers back in the pool.
func (p *Pool) Chunks(n int, fn func(lo, hi int)) {
	p.chunked(nil, n, fn)
}

// ChunksCtx is Chunks under cooperative cancellation: ctx is polled before
// each chunk is claimed, and once it is cancelled no further chunks start
// (chunks already running finish, so fn never executes concurrently with
// the return). It returns ctx.Err() when the region was cancelled and nil
// otherwise. Chunk boundaries are identical to Chunks, so an uncancelled
// run produces bit-identical results.
func (p *Pool) ChunksCtx(ctx context.Context, n int, fn func(lo, hi int)) error {
	return p.chunked(ctx, n, fn)
}

// chunked is the shared region body; a nil ctx means "never cancelled" and
// compiles down to the pre-context fast path (one nil check per chunk).
func (p *Pool) chunked(ctx context.Context, n int, fn func(lo, hi int)) error {
	if n <= 0 {
		return nil
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	if p != nil {
		p.tasks.Add(1)
	}
	chunks := p.Size()
	if chunks > n {
		chunks = n
	}
	if chunks <= 1 {
		if p != nil {
			p.chunks.Add(1)
		}
		fn(0, n)
		return ctxErr(ctx)
	}
	// Borrow whatever spare workers are free right now, up to one per
	// chunk beyond the caller. Nested regions naturally find fewer (often
	// zero) spares and degrade toward inline execution.
	extra := 0
	for extra < chunks-1 {
		select {
		case <-p.spare:
			extra++
			continue
		default:
		}
		break
	}
	if extra == 0 {
		p.chunks.Add(1)
		fn(0, n)
		return ctxErr(ctx)
	}
	p.borrows.Add(int64(extra))
	p.chunks.Add(int64(chunks))
	// The region's shared state: the next chunk to claim and the first
	// chunk panic's value.
	var r struct {
		next   atomic.Int64
		failed sync.Once
		fault  any
	}
	// run claims chunks until none are left. A chunk's panic is recovered
	// wherever it happens and stops further claims, so every worker
	// returns, the tokens go back, and the caller re-panics with it below:
	// a panic on a spare worker would otherwise end the process, and one
	// on the caller would leak the tokens.
	run := func() {
		defer func() {
			if v := recover(); v != nil {
				r.failed.Do(func() { r.fault = v })
				r.next.Store(int64(chunks))
			}
		}()
		for {
			if ctx != nil && ctx.Err() != nil {
				return
			}
			c := int(r.next.Add(1)) - 1
			if c >= chunks {
				return
			}
			fn(c*n/chunks, (c+1)*n/chunks)
		}
	}
	var wg sync.WaitGroup
	wg.Add(extra)
	for i := 0; i < extra; i++ {
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run() // the caller is always one of the workers
	wg.Wait()
	for i := 0; i < extra; i++ {
		p.spare <- struct{}{}
	}
	if r.fault != nil {
		panic(r.fault)
	}
	return ctxErr(ctx)
}

// ctxErr is ctx.Err() tolerating the nil sentinel used by Chunks.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// Each runs fn(i) for every i in [0, n), chunked across the pool.
func (p *Pool) Each(n int, fn func(i int)) {
	p.Chunks(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// EachCtx runs fn(i) for every i in [0, n) with cooperative cancellation:
// ctx is additionally polled before each item, so one region serves as a
// cancellation point even when it collapses to a single inline chunk.
// Returns ctx.Err() when cancelled, nil otherwise.
func (p *Pool) EachCtx(ctx context.Context, n int, fn func(i int)) error {
	return p.ChunksCtx(ctx, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if ctx.Err() != nil {
				return
			}
			fn(i)
		}
	})
}
