package coord_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lof"
	"lof/internal/client"
	"lof/internal/coord"
	"lof/internal/faults"
	"lof/internal/server"
	"lof/internal/shard"
)

// trainData is the shared fixture: three separated clusters, two clear
// outliers, and a block of exact duplicates that makes distinct mode
// meaningful.
func trainData() [][]float64 {
	var data [][]float64
	emit := func(cx, cy float64, n int, spread float64) {
		for i := 0; i < n; i++ {
			// Deterministic low-discrepancy jitter; no RNG needed.
			fx := float64(i%7)/7 - 0.5
			fy := float64(i%5)/5 - 0.5
			data = append(data, []float64{cx + spread*fx, cy + spread*fy})
		}
	}
	emit(0, 0, 40, 1.0)
	emit(12, 12, 40, 1.5)
	emit(-10, 8, 40, 0.8)
	data = append(data, []float64{50, -40}, []float64{-35, 60}) // outliers
	for i := 0; i < 6; i++ {                                    // exact duplicates
		data = append(data, []float64{3.25, 3.25})
	}
	return data
}

func testQueries() [][]float64 {
	return [][]float64{
		{0, 0}, {0.3, -0.2}, {12, 12}, {-10, 8},
		{50, -40}, {25, 25}, {3.25, 3.25}, {-35, 60},
		{6, 6}, {100, 100}, {0.5, 0.5}, {11.4, 12.6},
	}
}

func fitModel(t *testing.T, cfg lof.Config) *lof.Model {
	t.Helper()
	det, err := lof.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := det.Fit(trainData())
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	m, err := res.Model()
	if err != nil {
		t.Fatalf("Model: %v", err)
	}
	return m
}

// startShards launches n lofserve shard processes (in-process) and returns
// one single-replica target list per shard. wrap, when non-nil, may
// instrument a shard's handler — the chaos tests' hook.
func startShards(t *testing.T, n int, wrap func(shardID int, h http.Handler) http.Handler) [][]string {
	t.Helper()
	targets := make([][]string, n)
	for s := 0; s < n; s++ {
		h := http.Handler(server.New(server.Config{}).Handler())
		if wrap != nil {
			h = wrap(s, h)
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		targets[s] = []string{ts.URL}
	}
	return targets
}

func fastClient() client.Config {
	return client.Config{
		MaxAttempts: 5,
		BaseBackoff: 2 * time.Millisecond,
		MaxBackoff:  20 * time.Millisecond,
	}
}

func newCoord(t *testing.T, targets [][]string, part shard.Partitioner) *coord.Coordinator {
	t.Helper()
	c, err := coord.New(coord.Config{
		Targets:     targets,
		Client:      fastClient(),
		Partitioner: part,
	})
	if err != nil {
		t.Fatalf("coord.New: %v", err)
	}
	return c
}

// assertBitIdentical fails unless got and want agree bit for bit.
func assertBitIdentical(t *testing.T, got, want []float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d scores, want %d", label, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: query %d: sharded %v (%#x) != single-node %v (%#x)",
				label, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestOracle is the acceptance oracle: for every query, a sharded
// scatter-gather score must be bit-identical to the single-node model's
// score — across shard counts, partitioners, and both tie semantics.
func TestOracle(t *testing.T) {
	queries := testQueries()
	for _, tc := range []struct {
		name string
		cfg  lof.Config
	}{
		{"plain", lof.Config{MinPtsLB: 3, MinPtsUB: 9}},
		{"distinct", lof.Config{MinPtsLB: 3, MinPtsUB: 9, Distinct: true}},
		{"mean-agg", lof.Config{MinPtsLB: 4, MinPtsUB: 7, Aggregation: lof.AggregateMean}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := fitModel(t, tc.cfg)
			want, err := m.ScoreBatchContext(context.Background(), queries)
			if err != nil {
				t.Fatalf("single-node scores: %v", err)
			}
			for _, shards := range []int{2, 3, 5} {
				for _, part := range []shard.Partitioner{shard.PartitionHash, shard.PartitionRange} {
					c := newCoord(t, startShards(t, shards, nil), part)
					if _, err := c.Install(context.Background(), m); err != nil {
						t.Fatalf("shards=%d part=%v: Install: %v", shards, part, err)
					}
					got, mode, _, err := c.Score(context.Background(), queries, "")
					if err != nil {
						t.Fatalf("shards=%d part=%v: Score: %v", shards, part, err)
					}
					if mode != "" {
						t.Fatalf("shards=%d part=%v: exact score reported mode %q", shards, part, mode)
					}
					assertBitIdentical(t, got, want, tc.name)
				}
			}
		})
	}
}

// TestOracleHTTP drives the whole tier over HTTP: fit through the
// coordinator's API with the standard client, score through it, and compare
// against a local fit of the same data — bit-identical because fitting is
// deterministic and the evaluation path is shared.
func TestOracleHTTP(t *testing.T) {
	c := newCoord(t, startShards(t, 3, nil), shard.PartitionHash)
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	cl, err := client.New(client.Config{BaseURL: ts.URL})
	if err != nil {
		t.Fatalf("client.New: %v", err)
	}
	ctx := context.Background()

	// Unfitted: model 404s, readyz 503s, score conflicts.
	if _, err := cl.Model(ctx); err == nil {
		t.Fatal("Model before fit succeeded")
	}
	if info, err := cl.Readyz(ctx); err != nil || info.Ready {
		t.Fatalf("readyz before fit: %+v, %v", info, err)
	}

	fitCfg := server.FitConfig{MinPtsLB: 3, MinPtsUB: 8}
	fr, err := cl.Fit(ctx, fitCfg, trainData())
	if err != nil {
		t.Fatalf("Fit via coordinator: %v", err)
	}
	if fr.Objects != len(trainData()) || fr.Dims != 2 {
		t.Fatalf("fit result = %+v", fr)
	}

	queries := testQueries()
	got, err := cl.Score(ctx, queries)
	if err != nil {
		t.Fatalf("Score via coordinator: %v", err)
	}
	m := fitModel(t, lof.Config{MinPtsLB: 3, MinPtsUB: 8})
	want, err := m.ScoreBatchContext(ctx, queries)
	if err != nil {
		t.Fatalf("local scores: %v", err)
	}
	assertBitIdentical(t, got, want, "http")

	if info, err := cl.Readyz(ctx); err != nil || !info.Ready || info.Role != "coordinator" || info.Shards != 3 {
		t.Fatalf("readyz after fit: %+v, %v", info, err)
	}
	mi, err := cl.Model(ctx)
	if err != nil || mi.Objects != len(trainData()) {
		t.Fatalf("model info: %+v, %v", mi, err)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 1<<16)
	n, _ := resp.Body.Read(buf)
	body := string(buf[:n])
	for _, family := range []string{
		"lof_coord_fits_total", "lof_coord_score_points_total",
		"lof_coord_shard_rpc_duration_seconds", "lof_coord_snapshot_version",
	} {
		if !strings.Contains(body, family) {
			t.Fatalf("metrics missing %s:\n%s", family, body)
		}
	}
}

// TestChaosFaultyShard keeps one shard behind a 15%% fault profile (a mix
// of dropped connections and injected 503s), in exact and in pruned mode.
// Every answered request must still be the single-node answer, bit for
// bit, with pruned mode's certified count: retries absorb the faults, and
// a wrong score — rather than an error — is the one unacceptable outcome.
func TestChaosFaultyShard(t *testing.T) {
	inj := faults.New(faults.Config{
		Seed:       42,
		DropProb:   0.05,
		ErrorProb:  0.10,
		RetryAfter: time.Millisecond,
	})
	targets := startShards(t, 3, func(s int, h http.Handler) http.Handler {
		if s == 1 {
			return inj.Middleware(h)
		}
		return h
	})
	m := fitModel(t, lof.Config{MinPtsLB: 3, MinPtsUB: 9})
	c := newCoord(t, targets, shard.PartitionHash)
	if _, err := c.Install(context.Background(), m); err != nil {
		t.Fatalf("Install: %v", err)
	}
	queries := testQueries()
	want, err := m.ScoreBatchContext(context.Background(), queries)
	if err != nil {
		t.Fatalf("single-node scores: %v", err)
	}
	wantPruned, err := m.ScoreBatchPruned(queries, 0)
	if err != nil {
		t.Fatalf("single-node pruned scores: %v", err)
	}
	if wantPruned.Certified == 0 || wantPruned.Certified == len(queries) {
		t.Fatalf("%d of %d queries certify; pruned mode would skip a path", wantPruned.Certified, len(queries))
	}
	answered := map[string]int{}
	for round := 0; round < 25; round++ {
		for _, mode := range []string{"", "pruned"} {
			got, served, certified, err := c.Score(context.Background(), queries, mode)
			if err != nil {
				// A shard exhausting its retries is an acceptable, explicit
				// outcome; a silent wrong answer is not.
				continue
			}
			if served != mode {
				t.Fatalf("round %d: %q request served mode %q", round, mode, served)
			}
			if mode == "" {
				assertBitIdentical(t, got, want, "chaos")
			} else {
				if certified != wantPruned.Certified {
					t.Fatalf("round %d: pruned certified %d, want %d", round, certified, wantPruned.Certified)
				}
				assertBitIdentical(t, got, wantPruned.Scores, "chaos pruned")
			}
			answered[mode]++
		}
	}
	if answered[""] == 0 || answered["pruned"] == 0 {
		t.Fatalf("answered by mode %v: some mode never survived a 15%% fault rate; retries are not engaging", answered)
	}
	if st := inj.Stats(); st.Drops+st.Errors == 0 {
		t.Fatal("fault injector never fired; the chaos test tested nothing")
	}
}

// TestShardBatchLimitIsCallerError: a batch over the shards' MaxBatch is
// the caller's error, not a shard outage. lofcoord answers 413 with the
// shard's message, as lofserve would, and degraded mode must not turn it
// into a coreset answer.
func TestShardBatchLimitIsCallerError(t *testing.T) {
	targets := make([][]string, 3)
	for s := range targets {
		ts := httptest.NewServer(server.New(server.Config{MaxBatch: 4}).Handler())
		t.Cleanup(ts.Close)
		targets[s] = []string{ts.URL}
	}
	c := newCoord(t, targets, shard.PartitionHash)
	if _, err := c.Install(context.Background(), fitModel(t, lof.Config{MinPtsLB: 3, MinPtsUB: 9})); err != nil {
		t.Fatalf("Install: %v", err)
	}
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	body, err := json.Marshal(map[string]interface{}{"queries": testQueries()})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"", "?mode=degraded", "?mode=pruned"} {
		resp, err := http.Post(ts.URL+"/v1/score"+mode, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(raw), "batch of 12 exceeds limit 4") {
			t.Errorf("score%s: status %d body %s, want 413 with the shard's message", mode, resp.StatusCode, raw)
		}
	}
}

// TestChaosShardDown takes a whole shard offline. Exact requests must fail
// loudly; requests that opted into degraded mode get the coreset model's
// answer, bit for bit, explicitly labeled — and fail loudly too when the
// coreset is disabled.
func TestChaosShardDown(t *testing.T) {
	var down atomic.Bool
	targets := startShards(t, 2, func(s int, h http.Handler) http.Handler {
		if s != 1 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if down.Load() {
				panic(http.ErrAbortHandler) // sever the connection, like a crash
			}
			h.ServeHTTP(w, r)
		})
	})
	m := fitModel(t, lof.Config{MinPtsLB: 3, MinPtsUB: 9})
	install := func(coresetSample int) *coord.Coordinator {
		c, err := coord.New(coord.Config{
			Targets: targets, Client: fastClient(), Partitioner: shard.PartitionRange,
			CoresetSample: coresetSample,
		})
		if err != nil {
			t.Fatalf("coord.New: %v", err)
		}
		if _, err := c.Install(context.Background(), m); err != nil {
			t.Fatalf("Install: %v", err)
		}
		return c
	}
	c, noCoreset := install(64), install(-1)
	cs, err := m.Coreset(64)
	if err != nil {
		t.Fatalf("Coreset: %v", err)
	}
	queries := testQueries()
	wantDegraded, err := cs.ScoreBatch(queries)
	if err != nil {
		t.Fatalf("coreset scores: %v", err)
	}
	down.Store(true)

	if _, _, _, err := c.Score(context.Background(), queries, ""); err == nil {
		t.Fatal("exact score succeeded with a shard down")
	}
	scores, mode, _, err := c.Score(context.Background(), queries, "degraded")
	if err != nil {
		t.Fatalf("degraded score with a shard down: %v", err)
	}
	if mode != "degraded" {
		t.Fatalf("fallback answer labeled %q, want degraded", mode)
	}
	assertBitIdentical(t, scores, wantDegraded, "degraded")
	if _, _, _, err := noCoreset.Score(context.Background(), queries, "degraded"); err == nil {
		t.Fatal("degraded score without a coreset succeeded with a shard down")
	}
	// Degraded points count as answered points, like every other mode.
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, want := range []string{"lof_coord_score_points_total 12\n", `lof_coord_score_mode_total{mode="degraded"} 1` + "\n"} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("metrics lack %q", want)
		}
	}

	// Recovery: the shard comes back, exact serving resumes bit-identically.
	down.Store(false)
	want, _ := m.ScoreBatchContext(context.Background(), queries)
	got, mode, _, err := c.Score(context.Background(), queries, "")
	if err != nil || mode != "" {
		t.Fatalf("exact score after recovery: mode=%q err=%v", mode, err)
	}
	assertBitIdentical(t, got, want, "recovered")
}

// TestRepairAndFailover exercises replica management: a replica that missed
// the initial distribution is caught up by Repair, after which it can carry
// the shard alone when the primary dies.
func TestRepairAndFailover(t *testing.T) {
	var primaryDead, secondaryUp atomic.Bool
	gated := func(flag *atomic.Bool, want bool, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if flag.Load() != want {
				panic(http.ErrAbortHandler)
			}
			h.ServeHTTP(w, r)
		})
	}
	primary := httptest.NewServer(gated(&primaryDead, false, server.New(server.Config{}).Handler()))
	defer primary.Close()
	secondary := httptest.NewServer(gated(&secondaryUp, true, server.New(server.Config{}).Handler()))
	defer secondary.Close()
	other := httptest.NewServer(server.New(server.Config{}).Handler())
	defer other.Close()

	targets := [][]string{{primary.URL, secondary.URL}, {other.URL}}
	c := newCoord(t, targets, shard.PartitionHash)
	m := fitModel(t, lof.Config{MinPtsLB: 3, MinPtsUB: 9})
	queries := testQueries()
	want, _ := m.ScoreBatchContext(context.Background(), queries)

	// Distribution succeeds despite the dead secondary: one live replica per
	// shard is enough.
	if _, err := c.Install(context.Background(), m); err != nil {
		t.Fatalf("Install with one replica down: %v", err)
	}
	got, _, _, err := c.Score(context.Background(), queries, "")
	if err != nil {
		t.Fatalf("Score via primary: %v", err)
	}
	assertBitIdentical(t, got, want, "primary")

	// The secondary comes up empty; a repair sweep pushes the snapshot.
	secondaryUp.Store(true)
	if n := c.Repair(context.Background()); n == 0 {
		t.Fatal("Repair pushed nothing to the empty secondary")
	}
	if n := c.Repair(context.Background()); n != 0 {
		t.Fatalf("second Repair sweep re-pushed %d snapshots to converged replicas", n)
	}

	// The primary dies; failover serves exact scores from the secondary.
	primaryDead.Store(true)
	got, mode, _, err := c.Score(context.Background(), queries, "")
	if err != nil || mode != "" {
		t.Fatalf("Score after failover: mode=%q err=%v", mode, err)
	}
	assertBitIdentical(t, got, want, "failover")
}

// TestScoreValidation covers the coordinator's own request validation.
func TestScoreValidation(t *testing.T) {
	c := newCoord(t, startShards(t, 2, nil), shard.PartitionHash)
	ctx := context.Background()
	if _, _, _, err := c.Score(ctx, [][]float64{{0, 0}}, ""); err == nil {
		t.Fatal("Score before any fit succeeded")
	}
	m := fitModel(t, lof.Config{MinPtsLB: 2, MinPtsUB: 4})
	if _, err := c.Install(ctx, m); err != nil {
		t.Fatalf("Install: %v", err)
	}
	if _, _, _, err := c.Score(ctx, [][]float64{{1, 2, 3}}, ""); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	if _, _, _, err := c.Score(ctx, [][]float64{{math.NaN(), 0}}, ""); err == nil {
		t.Fatal("NaN query accepted")
	}
}

// forgeNearest wraps a shard so that, while *forged is non-negative, its
// candidates answers claim id *forged as each query's nearest candidate.
func forgeNearest(forged *atomic.Int64, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := forged.Load()
		if r.URL.Path != "/v1/shard/candidates" || id < 0 {
			h.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		f, err := shard.DecodeFrame(rec.Body.Bytes())
		if rec.Code != http.StatusOK || err != nil {
			w.WriteHeader(rec.Code)
			w.Write(rec.Body.Bytes())
			return
		}
		at := 0
		for _, n := range f.Counts {
			if n > 0 {
				f.Entries[at].Index = int(id)
			}
			at += int(n)
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(f.Encode())
	})
}

// TestForgedCandidateIDs: a shard whose answers name a point outside the
// model, or a point another shard owns, fails every exact and pruned
// request with a labelled shard error — a 502, never a panic and never a
// score — and degraded mode absorbs it as it absorbs an outage. Under the
// range partitioner with two shards, id 0 belongs to shard 0, so shard 1
// may not answer it.
func TestForgedCandidateIDs(t *testing.T) {
	var forged atomic.Int64
	forged.Store(-1)
	targets := startShards(t, 2, func(s int, h http.Handler) http.Handler {
		if s == 1 {
			return forgeNearest(&forged, h)
		}
		return h
	})
	m := fitModel(t, lof.Config{MinPtsLB: 3, MinPtsUB: 6})
	c, err := coord.New(coord.Config{Targets: targets, Client: fastClient(), Partitioner: shard.PartitionRange, CoresetSample: 64})
	if err != nil {
		t.Fatalf("coord.New: %v", err)
	}
	if _, err := c.Install(context.Background(), m); err != nil {
		t.Fatalf("Install: %v", err)
	}
	queries := testQueries()
	body, err := json.Marshal(map[string]interface{}{"queries": queries})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int64{1 << 20, 0} {
		forged.Store(id)
		for _, mode := range []string{"", "pruned"} {
			scores, _, _, err := c.Score(context.Background(), queries, mode)
			if err == nil || !strings.Contains(err.Error(), "shard 1") || !strings.Contains(err.Error(), "candidate id") {
				t.Fatalf("id %d, mode %q: scores %v, error %v; want a shard 1 error naming the candidate id", id, mode, scores, err)
			}
			rec := httptest.NewRecorder()
			c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/score?mode="+mode, bytes.NewReader(body)))
			if rec.Code != http.StatusBadGateway {
				t.Fatalf("id %d, mode %q: status %d body %s, want 502", id, mode, rec.Code, rec.Body)
			}
		}
		if _, mode, _, err := c.Score(context.Background(), queries, "degraded"); err != nil || mode != "degraded" {
			t.Fatalf("id %d: degraded request served mode %q, error %v; want the coreset's labelled answer", id, mode, err)
		}
	}
	// The honest shard serves exactly again.
	forged.Store(-1)
	want, err := m.ScoreBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	got, _, _, err := c.Score(context.Background(), queries, "")
	if err != nil {
		t.Fatalf("exact score from honest shards: %v", err)
	}
	assertBitIdentical(t, got, want, "honest")
}
