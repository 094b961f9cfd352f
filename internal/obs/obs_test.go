package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	sp := tr.Phase(PhaseSweep)
	if sp != nil {
		t.Fatalf("nil tracer Phase = %v, want nil span", sp)
	}
	sp.AddItems(10)
	sp.End()
	tr.Count(CounterPoolTasks, 3)
	if snap := tr.Snapshot(); snap != nil {
		t.Fatalf("nil tracer Snapshot = %v, want nil", snap)
	}
	var s *RunStats
	if _, ok := s.Phase(PhaseSweep); ok {
		t.Fatal("nil RunStats reported a phase")
	}
	if v := s.Counter(CounterPoolTasks); v != 0 {
		t.Fatalf("nil RunStats Counter = %d, want 0", v)
	}
	if d := s.TopLevelTotal(); d != 0 {
		t.Fatalf("nil RunStats TopLevelTotal = %v, want 0", d)
	}
}

// TestNilTracerZeroAlloc is the no-op overhead guard: with tracing
// disabled (nil tracer), the span lifecycle must not allocate at all.
func TestNilTracerZeroAlloc(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Phase(PhaseSweepLRD)
		sp.AddItems(1)
		sp.End()
		tr.Count(CounterPoolChunks, 1)
	})
	if allocs != 0 {
		t.Fatalf("nil tracer path allocates %v allocs/op, want 0", allocs)
	}
}

func TestTracerRecordsPhasesAndCounters(t *testing.T) {
	tr := NewTracer()
	sp := tr.Phase(PhaseMaterialize)
	sp.AddItems(100)
	time.Sleep(time.Millisecond)
	sp.End()
	sp = tr.Phase(PhaseSweep)
	sp.AddItems(5)
	sp.End()
	tr.Count(CounterPoolTasks, 2)
	tr.Count(CounterPoolTasks, 3)

	snap := tr.Snapshot()
	if len(snap.Phases) != 2 {
		t.Fatalf("got %d phases, want 2", len(snap.Phases))
	}
	if snap.Phases[0].Name != PhaseMaterialize || snap.Phases[1].Name != PhaseSweep {
		t.Fatalf("phase order = %q, %q; want first-seen order", snap.Phases[0].Name, snap.Phases[1].Name)
	}
	mat, ok := snap.Phase(PhaseMaterialize)
	if !ok {
		t.Fatal("materialize phase missing")
	}
	if mat.Count != 1 || mat.Items != 100 {
		t.Fatalf("materialize count=%d items=%d, want 1/100", mat.Count, mat.Items)
	}
	if mat.Total < time.Millisecond {
		t.Fatalf("materialize total = %v, want >= 1ms", mat.Total)
	}
	if mat.Min > mat.Max || mat.Total < mat.Max {
		t.Fatalf("inconsistent min/max/total: %v/%v/%v", mat.Min, mat.Max, mat.Total)
	}
	if v := snap.Counter(CounterPoolTasks); v != 5 {
		t.Fatalf("pool tasks counter = %d, want 5", v)
	}
	if v := snap.Counter(CounterIndexFallback); v != 0 {
		t.Fatalf("unset counter = %d, want 0", v)
	}
}

func TestTopLevelTotalExcludesNested(t *testing.T) {
	tr := NewTracer()
	for _, name := range []string{PhaseMaterialize, PhaseSweep, PhaseSweepLRD, PhaseSweepLOF} {
		tr.Phase(name).End()
	}
	snap := tr.Snapshot()
	var want time.Duration
	for _, p := range snap.Phases {
		if p.Name == PhaseMaterialize || p.Name == PhaseSweep {
			want += p.Total
		}
	}
	if got := snap.TopLevelTotal(); got != want {
		t.Fatalf("TopLevelTotal = %v, want %v (top-level phases only)", got, want)
	}
	if !Nested(PhaseSweepLRD) || Nested(PhaseSweep) {
		t.Fatal("Nested misclassifies phase names")
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer()
	const goroutines = 8
	const iters = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				sp := tr.Phase(PhaseSweepLRD)
				sp.AddItems(3)
				sp.End()
				tr.Count(CounterPoolChunks, 1)
				if i%10 == 0 {
					_ = tr.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	snap := tr.Snapshot()
	p, ok := snap.Phase(PhaseSweepLRD)
	if !ok {
		t.Fatal("phase missing after concurrent recording")
	}
	if p.Count != goroutines*iters {
		t.Fatalf("span count = %d, want %d", p.Count, goroutines*iters)
	}
	if p.Items != goroutines*iters*3 {
		t.Fatalf("items = %d, want %d", p.Items, goroutines*iters*3)
	}
	if v := snap.Counter(CounterPoolChunks); v != goroutines*iters {
		t.Fatalf("chunk counter = %d, want %d", v, goroutines*iters)
	}
}

func TestDefaultTracer(t *testing.T) {
	if Default() != nil {
		t.Fatal("process default tracer should start nil")
	}
	tr := NewTracer()
	SetDefault(tr)
	defer SetDefault(nil)
	if Default() != tr {
		t.Fatal("SetDefault did not install tracer")
	}
	if Resolve(nil) != tr {
		t.Fatal("Resolve(nil) should fall back to default")
	}
	other := NewTracer()
	if Resolve(other) != other {
		t.Fatal("Resolve should prefer the explicit tracer")
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{0.001, 0.01, 0.1})
	h.Observe(500 * time.Microsecond) // <= 0.001
	h.Observe(time.Millisecond)       // boundary: le=0.001 bucket
	h.Observe(5 * time.Millisecond)   // <= 0.01
	h.Observe(time.Second)            // +Inf
	s := h.Snapshot()
	want := []int64{2, 1, 0, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d count = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count() != 4 {
		t.Fatalf("total count = %d, want 4", s.Count())
	}
	wantSum := 500*time.Microsecond + time.Millisecond + 5*time.Millisecond + time.Second
	if s.Sum != wantSum {
		t.Fatalf("sum = %v, want %v", s.Sum, wantSum)
	}
}

func TestPromWriterHistogram(t *testing.T) {
	h := NewHistogram([]float64{0.001, 0.01})
	h.Observe(2 * time.Millisecond)
	h.Observe(3 * time.Second)
	var b strings.Builder
	p := NewPromWriter(&b)
	p.Family("lof_test_seconds", "histogram", "test histogram")
	p.Histo("lof_test_seconds", h.Snapshot(), "route", "/v1/fit")
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP lof_test_seconds test histogram\n",
		"# TYPE lof_test_seconds histogram\n",
		`lof_test_seconds_bucket{route="/v1/fit",le="0.001"} 0` + "\n",
		`lof_test_seconds_bucket{route="/v1/fit",le="0.01"} 1` + "\n",
		`lof_test_seconds_bucket{route="/v1/fit",le="+Inf"} 2` + "\n",
		`lof_test_seconds_sum{route="/v1/fit"} 3.002` + "\n",
		`lof_test_seconds_count{route="/v1/fit"} 2` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestPromWriterEscaping(t *testing.T) {
	var b strings.Builder
	p := NewPromWriter(&b)
	p.Family("lof_x_total", "counter", "line1\nline2 with \\ backslash")
	p.IntSample("lof_x_total", 7, "path", `a"b\c`+"\n")
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `# HELP lof_x_total line1\nline2 with \\ backslash`) {
		t.Fatalf("HELP not escaped:\n%s", out)
	}
	if !strings.Contains(out, `lof_x_total{path="a\"b\\c\n"} 7`) {
		t.Fatalf("label value not escaped:\n%s", out)
	}
}

func TestFormatValue(t *testing.T) {
	if got := formatValue(math.Inf(1)); got != "+Inf" {
		t.Fatalf("formatValue(+Inf) = %q", got)
	}
	if got := formatValue(0.25); got != "0.25" {
		t.Fatalf("formatValue(0.25) = %q", got)
	}
}
