package coord_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"lof"
	"lof/internal/coord"
	"lof/internal/shard"
)

// prunedQueries is testQueries plus 200 more, drawn from a fixed seed:
// three in four are training points jittered by 0.3, the queries a
// certificate should answer, and the rest are scattered over the whole
// training range.
func prunedQueries() [][]float64 {
	rng := rand.New(rand.NewSource(17))
	data := trainData()
	qs := testQueries()
	for i := 0; i < 200; i++ {
		if i%4 == 3 {
			qs = append(qs, []float64{rng.Float64()*100 - 45, rng.Float64()*110 - 45})
			continue
		}
		b := data[rng.Intn(len(data))]
		qs = append(qs, []float64{b[0] + 0.3*rng.NormFloat64(), b[1] + 0.3*rng.NormFloat64()})
	}
	return qs
}

// fuzzSeedData returns the 28 points of FuzzQueryBounds' seed
// cb90fd120c2d7d02 (internal/approx), whose distinct-mode rows mostly hold
// fewer than MinPtsUB=26 distinct positions, and 200 queries of the
// fuzzer's four kinds drawn from the same stream.
func fuzzSeedData() (data, queries [][]float64) {
	rng := rand.New(rand.NewSource(26))
	for i := 0; i < 28; i++ {
		switch rng.Intn(10) {
		case 0:
			data = append(data, []float64{rng.Float64()*200 - 100, rng.Float64()*200 - 100})
		case 1:
			p := []float64{0, 0}
			if len(data) > 0 {
				p = append([]float64(nil), data[rng.Intn(len(data))]...)
			}
			data = append(data, p)
		default:
			c := float64(rng.Intn(3)) * 10
			data = append(data, []float64{c + rng.NormFloat64(), c + rng.NormFloat64()})
		}
	}
	for trial := 0; trial < 200; trial++ {
		switch trial % 4 {
		case 0:
			queries = append(queries, append([]float64(nil), data[rng.Intn(len(data))]...))
		case 1:
			b := data[rng.Intn(len(data))]
			queries = append(queries, []float64{b[0] + 0.3*rng.NormFloat64(), b[1] + 0.3*rng.NormFloat64()})
		case 2:
			queries = append(queries, []float64{rng.Float64()*400 - 200, rng.Float64()*400 - 200})
		default:
			queries = append(queries, []float64{rng.Float64()*30 - 5, rng.Float64()*30 - 5})
		}
	}
	return data, queries
}

// TestPrunedMode: lofcoord's pruned mode answers as lofserve's does. For
// every query its score is the one lof.Model.ScoreBatchPruned returns, bit
// for bit, with the same certified count, over 2, 3 and 5 shards and both
// partitioners, for plain, distinct and mean-aggregated models and on the
// data of FuzzQueryBounds' seed cb90fd120c2d7d02. A certified query's
// exact score lies in the 1±eps band, and every other answer is exact.
// Nothing certifies on the seed data, whose distinct rows mostly have no
// finite k-distance ceiling; it replays the uncertain path over a joined
// distinct database.
func TestPrunedMode(t *testing.T) {
	seedData, seedQueries := fuzzSeedData()
	for _, tc := range []struct {
		name      string
		data      [][]float64
		queries   [][]float64
		cfg       lof.Config
		certifies bool
	}{
		{"8..12", trainData(), prunedQueries(), lof.Config{MinPtsLB: 8, MinPtsUB: 12}, true},
		{"10..30", trainData(), prunedQueries(), lof.Config{MinPtsLB: 10, MinPtsUB: 30}, true},
		{"distinct-5..15", trainData(), prunedQueries(), lof.Config{MinPtsLB: 5, MinPtsUB: 15, Distinct: true}, true},
		{"mean-agg", trainData(), prunedQueries(), lof.Config{MinPtsLB: 8, MinPtsUB: 12, Aggregation: lof.AggregateMean}, true},
		{"cb90fd120c2d7d02", seedData, seedQueries, lof.Config{MinPtsLB: 12, MinPtsUB: 26, Distinct: true}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			det, err := lof.New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := det.Fit(tc.data)
			if err != nil {
				t.Fatal(err)
			}
			m, err := res.Model()
			if err != nil {
				t.Fatal(err)
			}
			want, err := m.ScoreBatchPruned(tc.queries, 0)
			if err != nil {
				t.Fatal(err)
			}
			if (want.Certified > 0) != tc.certifies {
				t.Fatalf("lofserve certifies %d of %d queries", want.Certified, len(tc.queries))
			}
			exact, err := m.ScoreBatch(tc.queries)
			if err != nil {
				t.Fatal(err)
			}
			eps := lof.DefaultPruneEps
			for i, pruned := range want.Pruned {
				if pruned && (exact[i] < 1/(1+eps)*(1-1e-9) || exact[i] > (1+eps)*(1+1e-9)) {
					t.Fatalf("query %d certified but exact %v outside 1±%v", i, exact[i], eps)
				}
				if !pruned && math.Float64bits(want.Scores[i]) != math.Float64bits(exact[i]) {
					t.Fatalf("query %d: uncertain score %v != exact %v", i, want.Scores[i], exact[i])
				}
			}
			for _, shards := range []int{2, 3, 5} {
				for _, part := range []shard.Partitioner{shard.PartitionHash, shard.PartitionRange} {
					label := fmt.Sprintf("shards=%d part=%v", shards, part)
					c := newCoord(t, startShards(t, shards, nil), part)
					if _, err := c.Install(context.Background(), m); err != nil {
						t.Fatalf("%s: Install: %v", label, err)
					}
					got, mode, certified, err := c.Score(context.Background(), tc.queries, "pruned")
					if err != nil {
						t.Fatalf("%s: pruned Score: %v", label, err)
					}
					if mode != "pruned" || certified != want.Certified {
						t.Fatalf("%s: mode %q certified %d, lofserve certifies %d", label, mode, certified, want.Certified)
					}
					assertBitIdentical(t, got, want.Scores, label)
				}
			}
		})
	}
}

// TestPrunedSummariesLazyAndOnce: the coordinator builds its pruned-mode
// summaries on a version's first pruned request, never for other traffic;
// concurrent first pruned requests share one build; Install builds
// nothing, and the next version's first pruned request builds afresh, for
// that version's model.
func TestPrunedSummariesLazyAndOnce(t *testing.T) {
	ctx := context.Background()
	c := newCoord(t, startShards(t, 3, nil), shard.PartitionHash)
	builds := func() string {
		rec := httptest.NewRecorder()
		c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		for _, line := range strings.Split(rec.Body.String(), "\n") {
			if v, ok := strings.CutPrefix(line, "lof_coord_pruned_summary_builds_total "); ok {
				return v
			}
		}
		t.Fatal("metrics lack lof_coord_pruned_summary_builds_total")
		return ""
	}
	queries := prunedQueries()
	m := fitModel(t, lof.Config{MinPtsLB: 8, MinPtsUB: 12})
	if _, err := c.Install(ctx, m); err != nil {
		t.Fatalf("Install: %v", err)
	}
	for _, mode := range []string{"", "full", "degraded", "coreset"} {
		if _, _, _, err := c.Score(ctx, queries, mode); err != nil {
			t.Fatalf("mode %q: %v", mode, err)
		}
	}
	if got := builds(); got != "0" {
		t.Fatalf("exact and coreset traffic built summaries %s times", got)
	}

	want, err := m.ScoreBatchPruned(queries, 0)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 24; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, _, certified, err := c.Score(ctx, queries, "pruned")
			if err != nil {
				t.Errorf("concurrent pruned Score: %v", err)
				return
			}
			if certified != want.Certified {
				t.Errorf("certified %d, want %d", certified, want.Certified)
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want.Scores[i]) {
					t.Errorf("query %d: %v, want %v", i, got[i], want.Scores[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := builds(); got != "1" {
		t.Fatalf("24 concurrent first pruned requests built summaries %s times, want once", got)
	}

	m2 := fitModel(t, lof.Config{MinPtsLB: 10, MinPtsUB: 30})
	if _, err := c.Install(ctx, m2); err != nil {
		t.Fatalf("re-Install: %v", err)
	}
	if got := builds(); got != "1" {
		t.Fatalf("Install built summaries (%s builds)", got)
	}
	want2, err := m2.ScoreBatchPruned(queries, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, _, certified, err := c.Score(ctx, queries, "pruned")
	if err != nil || certified != want2.Certified {
		t.Fatalf("pruned Score after re-Install: certified %d (want %d), %v", certified, want2.Certified, err)
	}
	assertBitIdentical(t, got, want2.Scores, "re-installed")
	if got := builds(); got != "2" {
		t.Fatalf("the new version's first pruned request left %s builds, want 2", got)
	}
}

// TestCoresetMode: coreset requests serve from the locally derived
// sensitivity sample — bit-identical to deriving the same coreset from the
// same model — and fall back to exact serving when derivation is disabled.
func TestCoresetMode(t *testing.T) {
	queries := testQueries()
	m := fitModel(t, lof.Config{MinPtsLB: 3, MinPtsUB: 9})
	cs, err := m.Coreset(64)
	if err != nil {
		t.Fatalf("Coreset: %v", err)
	}
	want, err := cs.ScoreBatch(queries)
	if err != nil {
		t.Fatalf("coreset scores: %v", err)
	}

	c, err := coord.New(coord.Config{
		Targets:       startShards(t, 2, nil),
		Client:        fastClient(),
		Partitioner:   shard.PartitionRange,
		CoresetSample: 64,
	})
	if err != nil {
		t.Fatalf("coord.New: %v", err)
	}
	if _, err := c.Install(context.Background(), m); err != nil {
		t.Fatalf("Install: %v", err)
	}
	got, mode, _, err := c.Score(context.Background(), queries, "coreset")
	if err != nil {
		t.Fatalf("coreset Score: %v", err)
	}
	if mode != "coreset" {
		t.Fatalf("served mode %q, want coreset", mode)
	}
	assertBitIdentical(t, got, want, "coreset")

	// Disabled derivation: the request is honored exactly, unlabeled.
	c2, err := coord.New(coord.Config{
		Targets:       startShards(t, 2, nil),
		Client:        fastClient(),
		Partitioner:   shard.PartitionRange,
		CoresetSample: -1,
	})
	if err != nil {
		t.Fatalf("coord.New: %v", err)
	}
	if _, err := c2.Install(context.Background(), m); err != nil {
		t.Fatalf("Install: %v", err)
	}
	exact, _ := m.ScoreBatchContext(context.Background(), queries)
	got, mode, _, err = c2.Score(context.Background(), queries, "coreset")
	if err != nil || mode != "" {
		t.Fatalf("disabled coreset: mode=%q err=%v", mode, err)
	}
	assertBitIdentical(t, got, exact, "coreset-disabled")
}

// TestPrunedModeHTTP drives ?mode=pruned through the coordinator's HTTP
// surface and checks the response shape and the mode-labeled metrics.
func TestPrunedModeHTTP(t *testing.T) {
	m := fitModel(t, lof.Config{MinPtsLB: 8, MinPtsUB: 12})
	c := newCoord(t, startShards(t, 2, nil), shard.PartitionRange)
	if _, err := c.Install(context.Background(), m); err != nil {
		t.Fatalf("Install: %v", err)
	}
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	body, _ := json.Marshal(map[string]interface{}{"queries": testQueries()})
	resp, err := ts.Client().Post(ts.URL+"/v1/score?mode=pruned", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST score: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d body %s", resp.StatusCode, raw)
	}
	// Scores decode as interface{}: non-finite values arrive as strings
	// ("+Inf", "NaN") under the protocol's tolerant float rendering.
	var out struct {
		Scores    []interface{} `json:"scores"`
		Mode      string        `json:"mode"`
		Certified int           `json:"certified"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("decoding %s: %v", raw, err)
	}
	if out.Mode != "pruned" || out.Certified == 0 || len(out.Scores) != len(testQueries()) {
		t.Fatalf("pruned response = %+v", out)
	}

	// Rejected mode names enumerate the valid set.
	resp, err = ts.Client().Post(ts.URL+"/v1/score?mode=bogus", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST bogus mode: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus mode status %d, want 400", resp.StatusCode)
	}

	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET metrics: %v", err)
	}
	mraw, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	text := string(mraw)
	if !strings.Contains(text, `lof_coord_score_mode_total{mode="pruned"} 1`) {
		t.Errorf("metrics missing pruned mode count")
	}
	for _, mode := range []string{"full", "coreset", "degraded"} {
		if !strings.Contains(text, `lof_coord_score_mode_total{mode="`+mode+`"} 0`) {
			t.Errorf("mode %q not pre-seeded in metrics", mode)
		}
	}
	if !strings.Contains(text, "lof_coord_pruned_certified_total") {
		t.Errorf("metrics missing lof_coord_pruned_certified_total")
	}
}
