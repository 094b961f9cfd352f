package lof

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"

	"lof/internal/approx"
	"lof/internal/core"
	"lof/internal/geom"
	"lof/internal/index"
	"lof/internal/matdb"
	"lof/internal/obs"
	"lof/internal/pool"
)

// Model is an immutable fitted LOF model supporting out-of-sample
// inference: it scores arbitrary query points against the fitted data per
// Definitions 5–7 — each score equals the LOF the query would receive from
// a full refit on data ∪ {query} at the same MinPts — without mutating or
// refitting anything. A Model is safe for concurrent use, and can be
// serialized with WriteTo or WriteFile and shipped to serving replicas that
// restore it with LoadModel, LoadModelBytes or OpenModelFile.
type Model struct {
	cfg    Config
	metric geom.Metric
	pts    *geom.Points
	ix     index.Index
	db     *matdb.DB
	scorer *core.Scorer
	// pool runs ScoreBatch's per-query workers — the only parallel region
	// on the scoring path — and builds the pruned path's summaries.
	pool *pool.Pool
	// tracer records scoring phases when the model descends from a traced
	// fit; nil (the default, and always for loaded snapshots) disables it.
	tracer *obs.Tracer
	// bounds holds the pruned path's bound summaries, built on the first
	// pruned request and shared by every WithWorkers/WithTrace copy.
	bounds *lazySummaries
}

// lazySummaries builds a model's approx.Summaries at most once.
type lazySummaries struct {
	once sync.Once
	sum  *approx.Summaries
	err  error
}

// summaries returns the model's bound summaries, building them on the
// model's pool on first use. A model that only scores exactly never pays
// for them.
func (m *Model) summaries() (*approx.Summaries, error) {
	b := m.bounds
	b.once.Do(func() {
		b.sum, b.err = approx.NewSummaries(m.db, m.cfg.MinPtsLB, m.cfg.MinPtsUB, m.pool)
	})
	return b.sum, b.err
}

// Model returns the fitted model behind this result. The model shares the
// result's (immutable) fitted state; it remains valid independently of the
// result.
func (r *Result) Model() (*Model, error) {
	sc, err := core.NewScorer(r.pts, r.ix, r.db, r.metric, r.cfg.MinPtsLB, r.cfg.MinPtsUB)
	if err != nil {
		return nil, err
	}
	return &Model{
		cfg: r.cfg, metric: r.metric, pts: r.pts, ix: r.ix, db: r.db,
		scorer: sc.WithTracer(r.tracer), pool: r.pool,
		tracer: r.tracer, bounds: new(lazySummaries),
	}, nil
}

// Stats returns the run statistics recorded by the traced fit this model
// descends from, including any scoring phases recorded since; nil when the
// fit was untraced or the model was restored from a snapshot. Scoring
// phases from concurrent queries overlap in time, so their totals are busy
// time rather than wall time.
func (m *Model) Stats() *RunStats { return m.tracer.Snapshot() }

// WithWorkers returns a model that shares this model's fitted state but
// scores over its own pool of the given width: n > 1 sets that many
// workers, n == 1 forces sequential scoring, and n <= 0 means GOMAXPROCS.
// The width bounds how many queries of one ScoreBatch (or
// ScoreBatchPruned) call are scored at once; each query runs on a single
// worker, so a single Score uses one core whatever the width. The
// receiver is unchanged, so serving code can derive per-request pools
// from one shared model.
func (m *Model) WithWorkers(n int) *Model {
	if n <= 0 {
		n = effectiveWorkers(0)
	}
	c := *m
	c.cfg.Workers = n
	c.pool = pool.New(n)
	return &c
}

// WithTrace returns a model that shares this model's fitted state but
// records scoring phases on a fresh tracer, readable through Stats. It is
// how serving code gets scoring observability for models restored with
// LoadModel, which carry no tracer of their own.
func (m *Model) WithTrace() *Model {
	tr := obs.NewTracer()
	c := *m
	c.tracer = tr
	c.scorer = m.scorer.WithTracer(tr)
	return &c
}

// WriteModel serializes the fitted model behind this result; see
// Model.WriteTo.
func (r *Result) WriteModel(w io.Writer) (int64, error) {
	m, err := r.Model()
	if err != nil {
		return 0, err
	}
	return m.WriteTo(w)
}

// Len returns the number of fitted objects.
func (m *Model) Len() int { return m.pts.Len() }

// Dim returns the dimensionality of the fitted data.
func (m *Model) Dim() int { return m.pts.Dim() }

// Config returns the configuration the model was fitted under. The
// returned value is a snapshot: mutating it — including its Weights slice —
// does not affect the model.
func (m *Model) Config() Config { return m.cfg.clone() }

// validateQuery rejects queries the scoring math would turn into silent
// garbage: wrong dimensionality and non-finite coordinates.
func (m *Model) validateQuery(q []float64) error {
	if len(q) != m.pts.Dim() {
		return fmt.Errorf("lof: query has %d dimensions, model expects %d", len(q), m.pts.Dim())
	}
	for i, c := range q {
		if math.IsNaN(c) {
			return fmt.Errorf("lof: query coordinate %d is NaN", i)
		}
		if math.IsInf(c, 0) {
			return fmt.Errorf("lof: query coordinate %d is %v", i, c)
		}
	}
	return nil
}

// validateBatch validates every query of a batch before any is scored, so
// an invalid row fails the whole batch.
func (m *Model) validateBatch(queries [][]float64) error {
	for i, q := range queries {
		if err := m.validateQuery(q); err != nil {
			return fmt.Errorf("lof: batch row %d: %w", i, err)
		}
	}
	return nil
}

// Score returns the query point's LOF aggregated over the model's MinPts
// range with the configured aggregation. The query is validated for
// dimensionality and finiteness.
func (m *Model) Score(query []float64) (float64, error) {
	return m.ScoreContext(context.Background(), query)
}

// ScoreContext is Score under cooperative cancellation: ctx is polled
// between the query's scoring phases, so a cancelled request stops burning
// CPU within a phase boundary. An uncancelled call is bit-identical to
// Score; a cancelled one returns an error wrapping ctx.Err().
func (m *Model) ScoreContext(ctx context.Context, query []float64) (float64, error) {
	if err := m.validateQuery(query); err != nil {
		return 0, err
	}
	series, err := m.scorer.ScoreSeriesCtx(ctx, query)
	if err != nil {
		return 0, err
	}
	return core.ScoreAggregate(series, m.cfg.coreAggregate()), nil
}

// ScoreSeries returns the query point's LOF at every MinPts value in the
// model's range — the out-of-sample analogue of Result.Series.
func (m *Model) ScoreSeries(query []float64) (minPts []int, lofs []float64, err error) {
	if err := m.validateQuery(query); err != nil {
		return nil, nil, err
	}
	lofs, err = m.scorer.ScoreSeries(query)
	if err != nil {
		return nil, nil, err
	}
	lb, ub := m.scorer.MinPtsRange()
	minPts = make([]int, 0, ub-lb+1)
	for v := lb; v <= ub; v++ {
		minPts = append(minPts, v)
	}
	return minPts, lofs, nil
}

// ScoreBatch scores many query points over the model's bounded worker pool
// and returns one aggregated LOF per query, in input order. The pool size
// is Config.Workers (GOMAXPROCS when zero); the batch fans out per query
// only, each query scored start to finish on one worker. Every query is
// validated before any scoring starts, so an invalid row fails the whole
// batch with a descriptive error instead of poisoning part of the output.
func (m *Model) ScoreBatch(queries [][]float64) ([]float64, error) {
	return m.ScoreBatchContext(context.Background(), queries)
}

// ScoreBatchContext is ScoreBatch under cooperative cancellation: ctx is
// polled before each query and inside each query's scoring phases, so a
// cancelled batch frees its pool workers promptly instead of finishing the
// remaining queries. A cancelled batch returns an error wrapping ctx.Err()
// and no scores; an uncancelled one is bit-identical to ScoreBatch.
func (m *Model) ScoreBatchContext(ctx context.Context, queries [][]float64) ([]float64, error) {
	if err := m.validateBatch(queries); err != nil {
		return nil, err
	}
	out := make([]float64, len(queries))
	errs := make([]error, len(queries))
	if err := m.pool.EachCtx(ctx, len(queries), func(i int) {
		out[i], errs[i] = m.ScoreContext(ctx, queries[i])
	}); err != nil {
		return nil, fmt.Errorf("lof: batch cancelled: %w", err)
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("lof: batch row %d: %w", i, err)
		}
	}
	return out, nil
}

// Fitted exposes the fitted state the sharding subsystem partitions into
// per-shard sub-snapshots: the point collection and the materialization
// database. Both are immutable; callers must not modify them.
func (m *Model) Fitted() (*geom.Points, *matdb.DB) { return m.pts, m.db }

// --- Model snapshots ----------------------------------------------------
//
// A snapshot is the minimum state a serving replica needs to score
// queries: configuration, fitted coordinates, and the materialization
// database. The index is rebuilt on load (it is derived state and its
// in-memory layout is not worth freezing into a format).
//
// The format (version 3) is sectioned and flat: a fixed header, a section
// table, then 8-byte-aligned sections whose bytes are exactly the
// in-memory layout of the serving structures — packed row-major float64
// coordinates, 16-byte {index u64, dist f64} neighbor entries, u64 prefix
// offsets — followed by a CRC-32C (Castagnoli) trailer over every preceding
// byte. Because section bytes equal in-memory bytes, LoadModelBytes can
// reinterpret an mmap'd snapshot in place and serve from the mapping; see
// model_v3.go for the exact layout.
//
// Version 3 is the only format the loaders read. The retired streamed
// formats (versions 1 and 2) are refused with an error naming
// `lofcli migrate`, which converts such a file once: it refits the stored
// configuration and coordinates and writes version 3 only when the refit's
// database equals the stored one entry for entry. Versions above the
// current one are rejected up front so an old replica fails a new snapshot
// cleanly. The checksum makes corruption — a truncated download, a flipped
// bit in a replicated snapshot — a descriptive load error instead of a
// decode panic or, worse, a silently wrong model on a serving replica.

const (
	modelMagic   = "LOFS"
	modelVersion = 3
)

// maxSnapshotPoints bounds header-claimed sizes so a corrupt header cannot
// trigger absurd allocations before any data is validated.
const maxSnapshotPoints = 1 << 40

// WriteTo serializes the model in the current (version 3) snapshot format.
// It implements io.WriterTo.
func (m *Model) WriteTo(w io.Writer) (int64, error) {
	b := m.encodeV3()
	n, err := w.Write(b)
	return int64(n), err
}

// WriteFile saves the model as a snapshot file at path without ever
// rewriting the bytes of an existing file: it writes a temp file in the
// same directory, syncs it, and renames it over path. A process serving
// the old file by mmap keeps its mapping of the old inode and its answers,
// and a concurrent loader sees either the old snapshot or the new one,
// never a torn mix.
func (m *Model) WriteFile(path string) error {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("lof: writing snapshot %s: %w", path, err)
	}
	// CreateTemp opens 0600, but serving processes under other users read
	// snapshots too.
	err = f.Chmod(0o644)
	if err == nil {
		_, err = f.Write(m.encodeV3())
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
		return fmt.Errorf("lof: writing snapshot %s: %w", path, err)
	}
	return nil
}

// checkModelHeader vets a snapshot's magic and format version, the first
// eight bytes of every version.
func checkModelHeader(head []byte) error {
	if len(head) < len(modelMagic)+4 {
		return fmt.Errorf("lof: snapshot of %d bytes is too short", len(head))
	}
	if string(head[:len(modelMagic)]) != modelMagic {
		return fmt.Errorf("lof: bad model magic %q", head[:len(modelMagic)])
	}
	switch ver := binary.LittleEndian.Uint32(head[len(modelMagic):]); {
	case ver > modelVersion:
		return fmt.Errorf("lof: snapshot format version %d is newer than the supported %d; upgrade this binary", ver, modelVersion)
	case ver == 1 || ver == 2:
		return fmt.Errorf("lof: snapshot format version %d is retired; convert it once with `lofcli migrate -in old.bin -out new.bin`", ver)
	case ver != modelVersion:
		return fmt.Errorf("lof: unsupported model version %d", ver)
	}
	return nil
}

// LoadModel restores a model written by WriteTo (or Result.WriteModel),
// rebuilding the k-NN index from the stored coordinates. The stream is
// read into one exactly sized buffer and handed to LoadModelBytes; the
// model aliases that buffer for its lifetime. The header is vetted before
// the body is read, so a retired or newer-than-supported snapshot fails
// without draining the stream.
func LoadModel(r io.Reader) (*Model, error) {
	head := make([]byte, len(modelMagic)+4)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, fmt.Errorf("lof: reading model header: %w", err)
	}
	if err := checkModelHeader(head); err != nil {
		return nil, err
	}
	rest, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("lof: reading snapshot: %w", err)
	}
	// io.ReadAll leaves slack capacity that the model would pin; copy into
	// one exactly sized (and 8-aligned) allocation instead.
	all := make([]byte, len(head)+len(rest))
	copy(all[copy(all, head):], rest)
	return LoadModelBytes(all)
}

// assembleModel performs the load-time consistency checks shared by every
// snapshot version and derives the model's serving state (index, scorer)
// from the restored points and database.
func assembleModel(cfg Config, pts *geom.Points, db *matdb.DB) (*Model, error) {
	if db.Len() != pts.Len() {
		return nil, fmt.Errorf("lof: model has %d points but %d materialized rows", pts.Len(), db.Len())
	}
	if db.IsDistinct() != cfg.Distinct {
		return nil, fmt.Errorf("lof: model distinct flag disagrees with its database")
	}
	det, err := New(cfg)
	if err != nil {
		return nil, fmt.Errorf("lof: model configuration: %w", err)
	}
	cfg = det.cfg // defaults applied
	if db.K < cfg.MinPtsUB {
		return nil, fmt.Errorf("lof: model database materialized K=%d below MinPtsUB=%d", db.K, cfg.MinPtsUB)
	}
	if cfg.Weights != nil && len(cfg.Weights) != pts.Dim() {
		return nil, fmt.Errorf("lof: model has %d weights for %d-dimensional data", len(cfg.Weights), pts.Dim())
	}
	ix, err := det.buildIndex(pts, nil)
	if err != nil {
		return nil, err
	}
	sc, err := core.NewScorer(pts, ix, db, det.metric, cfg.MinPtsLB, cfg.MinPtsUB)
	if err != nil {
		return nil, err
	}
	// Snapshots do not carry a Workers setting; restored models score over
	// a GOMAXPROCS-wide pool (the Workers=0 default), adjustable with
	// WithWorkers.
	return &Model{
		cfg: cfg, metric: det.metric, pts: pts, ix: ix, db: db,
		scorer: sc, pool: det.pool, bounds: new(lazySummaries),
	}, nil
}

func boolByte(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// crcTable is the Castagnoli polynomial, hardware-accelerated on the
// platforms serving replicas run on.
var crcTable = crc32.MakeTable(crc32.Castagnoli)
