package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// tinySizes shrinks every workload so a run takes well under a second of
// measuring.
func tinySizes() sizes {
	return sizes{
		points: 400, dim: 4, clusters: 3,
		lb: 5, ub: 8,
		pool: 32, batch: 4,
		shards: 3,
		window: 120, streamDim: 4, streamMinPts: 5,
		pushBatch: 8, primeBatch: 50,
		fitPoints: 400, fitDim: 5,
		setupReps: 2, streamSetupReps: 2,
		warmup: 20 * time.Millisecond,
	}
}

func tinyConfig(t *testing.T, workload string, traced bool) config {
	return config{
		workload: workload,
		seed:     7,
		run:      400 * time.Millisecond,
		trace:    traced,
		workdir:  t.TempDir(),
		spans:    t.TempDir(),
		sz:       tinySizes(),
	}
}

// spec is the part of BENCHMARK.json the benchmark must agree with.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("reading BENCHMARK.json: %v", err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatalf("parsing BENCHMARK.json: %v", err)
	}
	return s
}

// notesByWorkload are the workload-specific figures each timed run prints
// in its summary besides the JSON metrics.
var notesByWorkload = map[string][]string{
	"serve-exact":   {"failed_frac", "rss_peak_mb", "latency_samples"},
	"serve-sharded": {"failed_frac", "rss_peak_mb", "latency_samples"},
	"stream-churn":  {"failed_frac", "rss_peak_mb", "latency_samples", "inserts_per_s", "insert_p50_ms", "insert_p99_ms", "insert_samples"},
	"fit-batch":     {"failed_frac", "rss_peak_mb", "latency_samples", "fit_points_per_s"},
}

func TestWorkloadsReportEveryMetric(t *testing.T) {
	s := readSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			name := w + "/timed"
			want := map[string]string{}
			for _, m := range s.EndToEnd {
				want[m.Name] = m.Unit
			}
			if traced {
				name = w + "/traced"
				want = map[string]string{}
				for _, m := range s.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			t.Run(name, func(t *testing.T) {
				cfg := tinyConfig(t, w, traced)
				res, err := run(context.Background(), cfg)
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d, first failure: %s", res.Correct, res.Attempted, res.Failed, res.firstErr)
				}
				for n, unit := range want {
					m, ok := res.Metrics[n]
					if !ok {
						t.Errorf("metric %s missing", n)
					} else if m.Unit != unit {
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", n, m.Unit, unit)
					}
				}
				for n := range res.Metrics {
					if _, ok := want[n]; !ok {
						t.Errorf("metric %s is not in BENCHMARK.json", n)
					}
				}
				if !traced {
					for _, n := range notesByWorkload[w] {
						if _, ok := res.notes[n]; !ok {
							t.Errorf("summary figure %s missing", n)
						}
					}
					for _, n := range []string{"setup_s", "throughput_qps", "latency_p50_ms"} {
						if res.Metrics[n].Value <= 0 {
							t.Errorf("%s = %v, want > 0", n, res.Metrics[n].Value)
						}
					}
				}
				var out bytes.Buffer
				if err := emit(&out, cfg, res); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var last map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatalf("last line is not JSON: %v", err)
				}
				if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
					t.Fatalf("last line has keys %v, want correct, attempted, failed, metrics", last)
				}
			})
		}
	}
}

func TestPerturbedAnswerIsAFailure(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			cfg := tinyConfig(t, w, false)
			cfg.perturb = true
			res, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if res.Correct || res.Failed == 0 {
				t.Fatalf("a perturbed expected score passed: correct=%v failed=%d of %d", res.Correct, res.Failed, res.Attempted)
			}
		})
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	if _, err := run(context.Background(), tinyConfig(t, "bogus", false)); err == nil {
		t.Fatal("an unknown workload ran")
	}
}

func TestCoveredMergesOverlappingChildren(t *testing.T) {
	x := &spanIndex{kids: map[int64][]span{1: {
		{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 50, End: 60}, {Start: 90, End: 120},
	}}}
	parent := span{ID: 1, Start: 0, End: 100}
	if got := x.covered(parent); got != 50 {
		t.Fatalf("covered = %d, want 50", got)
	}
	if got := x.self(parent); got != 50 {
		t.Fatalf("self = %d, want 50", got)
	}
}
