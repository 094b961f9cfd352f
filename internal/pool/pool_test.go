package pool

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestNilPoolRunsInline(t *testing.T) {
	var p *Pool
	if got := p.Size(); got != 1 {
		t.Fatalf("nil pool size = %d, want 1", got)
	}
	var calls []int
	p.Each(5, func(i int) { calls = append(calls, i) })
	for i, c := range calls {
		if c != i {
			t.Fatalf("nil pool visited %v, want ascending order", calls)
		}
	}
	if len(calls) != 5 {
		t.Fatalf("nil pool visited %d items, want 5", len(calls))
	}
}

func TestNewSmallCountsAreNil(t *testing.T) {
	for _, w := range []int{-1, 0, 1} {
		if New(w) != nil {
			t.Errorf("New(%d) != nil; small pools must collapse to the inline pool", w)
		}
	}
}

func TestChunksCoverEveryIndexExactlyOnce(t *testing.T) {
	for _, workers := range []int{2, 3, 8} {
		for _, n := range []int{0, 1, 2, 7, 100, 1000} {
			p := New(workers)
			visited := make([]int32, n)
			p.Chunks(n, func(lo, hi int) {
				if lo < 0 || hi > n || lo > hi {
					t.Errorf("workers=%d n=%d: bad chunk [%d,%d)", workers, n, lo, hi)
					return
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&visited[i], 1)
				}
			})
			for i, v := range visited {
				if v != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, v)
				}
			}
		}
	}
}

func TestChunkBoundariesAreDeterministic(t *testing.T) {
	p := New(4)
	record := func() [][2]int {
		var mu sync.Mutex
		var got [][2]int
		p.Chunks(37, func(lo, hi int) {
			mu.Lock()
			got = append(got, [2]int{lo, hi})
			mu.Unlock()
		})
		return got
	}
	a, b := record(), record()
	if len(a) != len(b) {
		t.Fatalf("chunk count varies across runs: %d vs %d", len(a), len(b))
	}
	seen := make(map[[2]int]bool)
	for _, c := range a {
		seen[c] = true
	}
	for _, c := range b {
		if !seen[c] {
			t.Fatalf("chunk %v appears in one run but not the other", c)
		}
	}
}

// TestNestedFanOutStaysBounded drives nested parallel regions and verifies
// the combined concurrency never exceeds the pool size.
func TestNestedFanOutStaysBounded(t *testing.T) {
	const workers = 4
	p := New(workers)
	var cur, peak atomic.Int64
	enter := func() {
		c := cur.Add(1)
		for {
			pk := peak.Load()
			if c <= pk || peak.CompareAndSwap(pk, c) {
				break
			}
		}
	}
	p.Each(8, func(i int) {
		p.Each(16, func(j int) {
			enter()
			defer cur.Add(-1)
			// Busy-ish body so overlaps are observable.
			s := 0
			for k := 0; k < 2000; k++ {
				s += k ^ j
			}
			_ = s
		})
	})
	if pk := peak.Load(); pk > workers {
		t.Fatalf("peak concurrency %d exceeds pool size %d", pk, workers)
	}
}

// TestTokensAreReturned verifies repeated regions keep working (tokens are
// released), including after nested use.
func TestTokensAreReturned(t *testing.T) {
	p := New(3)
	for round := 0; round < 50; round++ {
		total := atomic.Int64{}
		p.Each(10, func(i int) {
			p.Each(3, func(j int) { total.Add(1) })
		})
		if got := total.Load(); got != 30 {
			t.Fatalf("round %d: ran %d units, want 30", round, got)
		}
	}
	if got := len(p.spare); got != p.size-1 {
		t.Fatalf("pool leaked tokens: %d spare, want %d", got, p.size-1)
	}
}

func TestChunksDeterministicOutput(t *testing.T) {
	p := New(5)
	n := 503
	ref := make([]float64, n)
	for i := range ref {
		ref[i] = float64(i) * 1.5
	}
	for round := 0; round < 20; round++ {
		out := make([]float64, n)
		p.Chunks(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				out[i] = float64(i) * 1.5
			}
		})
		for i := range out {
			if out[i] != ref[i] {
				t.Fatalf("round %d: out[%d] = %v, want %v", round, i, out[i], ref[i])
			}
		}
	}
}

func TestStatsNilPool(t *testing.T) {
	var p *Pool
	p.Each(10, func(int) {})
	if s := p.Stats(); s != (Stats{}) {
		t.Fatalf("nil pool Stats = %+v, want zeros", s)
	}
}

func TestStatsCountsInlineAndParallel(t *testing.T) {
	p := New(4)
	// A single-element region collapses to one inline chunk.
	p.Each(1, func(int) {})
	s := p.Stats()
	if s.Tasks != 1 || s.Chunks != 1 || s.Borrows != 0 {
		t.Fatalf("after inline region: %+v, want tasks=1 chunks=1 borrows=0", s)
	}
	// A wide region with all spares free dispatches Size() chunks and
	// borrows Size()-1 tokens.
	p.Each(1000, func(int) {})
	s = p.Stats().Sub(s)
	if s.Tasks != 1 {
		t.Fatalf("parallel region tasks delta = %d, want 1", s.Tasks)
	}
	if s.Chunks != 4 {
		t.Fatalf("parallel region chunks delta = %d, want 4", s.Chunks)
	}
	if s.Borrows != 3 {
		t.Fatalf("parallel region borrows delta = %d, want 3", s.Borrows)
	}
}

func TestStatsConcurrent(t *testing.T) {
	p := New(4)
	const goroutines = 8
	const regions = 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < regions; i++ {
				p.Each(64, func(int) {})
				_ = p.Stats()
			}
		}()
	}
	wg.Wait()
	s := p.Stats()
	if s.Tasks != goroutines*regions {
		t.Fatalf("tasks = %d, want %d", s.Tasks, goroutines*regions)
	}
	// Every region dispatches at least one chunk; borrowed tokens are
	// bounded by Size()-1 extra chunks per region.
	if s.Chunks < s.Tasks || s.Chunks > s.Tasks*4 {
		t.Fatalf("chunks = %d out of range [%d, %d]", s.Chunks, s.Tasks, s.Tasks*4)
	}
	// A region borrows at most one token per chunk beyond its caller, but
	// under contention it may dispatch all its chunks on fewer workers.
	if s.Borrows > s.Chunks-s.Tasks {
		t.Fatalf("borrows = %d exceeds chunks-tasks = %d", s.Borrows, s.Chunks-s.Tasks)
	}
}

// TestPanicReturnsTokens: a chunk that panics, recovered by the caller,
// leaves the pool whole. The next wide region borrows Size()-1 workers
// again instead of running inline for good.
func TestPanicReturnsTokens(t *testing.T) {
	p := New(2)
	func() {
		defer func() {
			if v := recover(); v != "chunk 0" {
				t.Fatalf("recovered %v, want the chunk's panic", v)
			}
		}()
		p.Chunks(2, func(lo, hi int) {
			if lo == 0 {
				panic("chunk 0")
			}
		})
	}()
	if got := len(p.spare); got != p.Size()-1 {
		t.Fatalf("%d spare workers after a recovered panic, want %d", got, p.Size()-1)
	}
	before := p.Stats()
	p.Each(100, func(int) {})
	if got := p.Stats().Sub(before).Borrows; got != int64(p.Size()-1) {
		t.Fatalf("the next region borrowed %d workers, want %d", got, p.Size()-1)
	}
}

// TestPanicOnEveryWorker: every chunk panics, each on its own worker (a
// barrier holds them until all have started). The region re-panics on the
// caller's goroutine, where it can be recovered; a panic left on a spare
// worker would end the test binary.
func TestPanicOnEveryWorker(t *testing.T) {
	const workers = 4
	p := New(workers)
	var started sync.WaitGroup
	started.Add(workers)
	var got any
	func() {
		defer func() { got = recover() }()
		p.Chunks(workers, func(lo, hi int) {
			started.Done()
			started.Wait()
			panic(lo)
		})
	}()
	if v, ok := got.(int); !ok || v < 0 || v >= workers {
		t.Fatalf("recovered %v, want one chunk's start in [0, %d)", got, workers)
	}
	if n := len(p.spare); n != workers-1 {
		t.Fatalf("%d spare workers after the region, want %d", n, workers-1)
	}
}
