// Package stream turns the incremental LOF detector into a concurrently
// readable ingestion pipeline using epoch-based double buffering.
//
// Two incremental detectors evolve in lockstep: the published one serves
// reads (out-of-sample scoring, window LOFs), the other is the writer's
// working copy. One Apply batch is planned once — explicit deletes,
// inserts, sliding-window expiry and compaction are resolved into one
// deterministic batch — applied to the back detector as one update,
// published atomically as the next epoch, and then, after every reader of
// the previous epoch has drained, replayed onto the old detector by the
// same update. Because both detectors start empty and apply identical
// batches, they hold bit-identical state at every epoch boundary, and a
// reader never observes a half-applied update: the detector it acquired
// is not mutated until the reader releases it (see DESIGN.md, "Streaming
// epochs").
//
// All maintained and served values are exact: after every epoch publish,
// the live LOFs equal a from-scratch batch fit over the window at the same
// MinPts, bit for bit — the randomized oracle in stream_test.go checks
// exactly that while concurrent readers score mid-write.
package stream

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lof/internal/geom"
	"lof/internal/incremental"
	"lof/internal/index"
)

// compactMinDead is the tombstone floor below which compaction never
// triggers; above it, compaction runs when tombstones outnumber live
// points, amortizing the O(n) rebuild over the deletes that caused it.
const compactMinDead = 256

// Config parameterizes a Pipeline.
type Config struct {
	// Dim is the dimensionality of all ingested points.
	Dim int
	// MinPts as in the batch algorithm, at most 2^31−1.
	MinPts int
	// Metric names the distance, as in lof.Config.Metric ("" = euclidean).
	Metric string
	// MaxPoints, when positive, bounds the window by count: each batch
	// expires the oldest live points until at most MaxPoints remain.
	MaxPoints int
	// MaxAge, when positive, bounds the window by age: points inserted
	// more than MaxAge before the batch's Now are expired.
	MaxAge time.Duration
}

// Update is one writer batch: explicit deletes, inserts, and the time
// against which age expiry is evaluated.
type Update struct {
	// Inserts are appended to the window in order; coordinates are copied.
	Inserts []geom.Point
	// Deletes names points by the IDs Apply assigned on insert. Unknown or
	// already-deleted IDs reject the whole batch before anything applies.
	Deletes []uint64
	// Now is the batch timestamp for age expiry; the zero value disables
	// age expiry for this batch.
	Now time.Time
}

// Timing breaks one Apply batch's wall time into the pipeline's stages,
// for tracing: planning the batch, applying it to the back detector and
// publishing, draining the previous epoch's readers, and replaying onto
// the old detector.
type Timing struct {
	Plan   time.Duration
	Apply  time.Duration
	Drain  time.Duration
	Replay time.Duration
}

// Result reports what one Apply batch did.
type Result struct {
	// Seq is the epoch published by this batch.
	Seq uint64
	// Inserted holds the assigned ID of each insert, in order.
	Inserted []uint64
	// Expired holds the IDs removed by window expiry (age or count).
	Expired []uint64
	// Deleted counts the explicit deletes applied.
	Deleted int
	// Live is the window size after the batch.
	Live int
	// Compacted reports whether this batch also compacted the detectors.
	Compacted bool
	// Timing is the per-stage breakdown of this batch.
	Timing Timing
}

// Stats is a point-in-time snapshot of the pipeline.
type Stats struct {
	Seq         uint64 `json:"epoch"`
	Live        int    `json:"live"`
	Slots       int    `json:"slots"`
	Inserts     uint64 `json:"inserts_total"`
	Deletes     uint64 `json:"deletes_total"`
	Expired     uint64 `json:"expired_total"`
	Compactions uint64 `json:"compactions_total"`
	MinPts      int    `json:"min_pts"`
	Dim         int    `json:"dim"`
	// MaxPoints echoes the configured count bound (0 = unbounded), so
	// window occupancy (Live/MaxPoints) can be derived by observers.
	MaxPoints int `json:"max_points"`
	// LastPublishUnixNanos is when the current epoch was published, zero
	// before the first Apply — the basis of the epoch-lag gauge.
	LastPublishUnixNanos int64 `json:"last_publish_unix_nanos"`
	// Readers counts in-flight readers pinning the published epoch at
	// snapshot time (the replay-queue depth a writer would drain behind).
	Readers int `json:"readers"`
}

// epoch is one published immutable view. The detector it names is not
// mutated while any reader holds a reference; cursors are pooled per epoch
// because compaction can replace the detector's index between epochs.
type epoch struct {
	det     *incremental.Detector
	ids     []uint64 // slot → external ID (live slots only meaningful)
	seq     uint64
	refs    atomic.Int64
	cursors sync.Pool
}

// batch is one planned push: the same value is applied to both detectors
// as one incremental.Detector.Update, which is what keeps them
// bit-identical.
type batch struct {
	inserts []geom.Point // the push's inserts, read during Apply only
	first   int          // slot of the first insert
	deletes []int        // slots to remove, live or inserted by this push
	compact bool         // compact the detector after the update
}

// entry is one window FIFO record.
type entry struct {
	id uint64
	ts int64 // unix nanoseconds of insertion
}

// Pipeline is the epoch-based streaming LOF detector. Apply is
// single-writer (internally serialized); ScoreBatch, LOFs, Stats and
// Window may run concurrently with each other and with Apply. Freezing a
// window into a batch model is server.FreezeStream over Window.
type Pipeline struct {
	cfg    Config
	metric geom.Metric

	mu  sync.Mutex // serializes writers
	a   *incremental.Detector
	b   *incremental.Detector
	pub atomic.Pointer[epoch]
	seq uint64

	nextID   uint64
	idToSlot map[uint64]int
	slotToID []uint64
	window   []entry // FIFO of live insertions (lazily pruned)

	inserts     atomic.Uint64
	deletes     atomic.Uint64
	expired     atomic.Uint64
	compactions atomic.Uint64
	// lastPublish is the UnixNano stamp of the latest epoch publish.
	lastPublish atomic.Int64
}

// New validates cfg and returns an empty pipeline at epoch 0.
func New(cfg Config) (*Pipeline, error) {
	m, err := geom.MetricByName(cfg.Metric)
	if err != nil {
		return nil, err
	}
	if cfg.MaxPoints < 0 {
		return nil, fmt.Errorf("stream: MaxPoints must be non-negative, got %d", cfg.MaxPoints)
	}
	if cfg.MaxAge < 0 {
		return nil, fmt.Errorf("stream: MaxAge must be non-negative, got %v", cfg.MaxAge)
	}
	a, err := incremental.New(cfg.Dim, cfg.MinPts, m)
	if err != nil {
		return nil, err
	}
	b, err := incremental.New(cfg.Dim, cfg.MinPts, m)
	if err != nil {
		return nil, err
	}
	p := &Pipeline{
		cfg: cfg, metric: m,
		a: a, b: b,
		idToSlot: make(map[uint64]int),
	}
	p.pub.Store(p.newEpoch(a, 0))
	return p, nil
}

// newEpoch wraps det as the published view at seq.
func (p *Pipeline) newEpoch(det *incremental.Detector, seq uint64) *epoch {
	e := &epoch{det: det, seq: seq}
	// Readers index ids only by live slots, all below len at publish time;
	// the writer appends beyond it but never rewrites published entries.
	e.ids = p.slotToID[:len(p.slotToID):len(p.slotToID)]
	e.cursors.New = func() interface{} { return det.NewCursor() }
	return e
}

// acquire pins the published epoch against writer replay: the writer
// replays a batch onto a detector only after its epoch's refcount drains.
// The re-check closes the publish/increment race — an epoch superseded
// between Load and Add is released and retried, so a successful acquire
// always holds the refcount of an epoch the writer is still draining (or
// the current one), never one being mutated.
func (p *Pipeline) acquire() *epoch {
	for {
		e := p.pub.Load()
		e.refs.Add(1)
		if p.pub.Load() == e {
			return e
		}
		e.refs.Add(-1)
	}
}

func (e *epoch) release() { e.refs.Add(-1) }

// drain blocks until no reader holds e.
func (p *Pipeline) drain(e *epoch) {
	for i := 0; e.refs.Load() != 0; i++ {
		if i < 128 {
			runtime.Gosched()
		} else {
			time.Sleep(10 * time.Microsecond)
		}
	}
}

// Apply ingests one batch atomically: either the whole batch is rejected
// (unknown delete ID, malformed point) before any state changes, or all
// of it lands in the next published epoch. Concurrent Apply calls are
// serialized; readers keep scoring against the previous epoch until the
// new one is published.
func (p *Pipeline) Apply(u Update) (Result, error) {
	for _, q := range u.Inserts {
		if len(q) != p.cfg.Dim {
			return Result{}, fmt.Errorf("stream: insert has %d dimensions, pipeline has %d", len(q), p.cfg.Dim)
		}
		if !q.Valid() {
			return Result{}, geom.ErrInvalidCoord
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()

	cur := p.pub.Load()
	back := p.a
	if cur.det == p.a {
		back = p.b
	}

	planStart := time.Now()
	b, res, err := p.plan(back, u)
	if err != nil {
		return Result{}, err
	}
	res.Timing.Plan = time.Since(planStart)

	// Apply to the back detector, then publish it: readers switch to the
	// new epoch while the old detector still holds the previous state.
	// Timestamps for this batch's inserts: zero Now stamps 0, which only
	// matters under MaxAge — age-bounded pipelines pass real times on
	// every batch.
	var ts int64
	if !u.Now.IsZero() {
		ts = u.Now.UnixNano()
	}
	applyStart := time.Now()
	remap := p.apply(back, &b)
	p.bookkeep(&b, remap, &res, ts)
	p.seq++
	res.Seq = p.seq
	res.Live = back.Len()
	next := p.newEpoch(back, p.seq)
	prev := p.pub.Swap(next)
	p.lastPublish.Store(time.Now().UnixNano())
	res.Timing.Apply = time.Since(applyStart)

	// Replay the same batch onto the previous epoch's detector once its
	// readers are gone; both detectors are now bit-identical again.
	drainStart := time.Now()
	p.drain(prev)
	res.Timing.Drain = time.Since(drainStart)
	replayStart := time.Now()
	p.apply(prev.det, &b)
	res.Timing.Replay = time.Since(replayStart)

	p.inserts.Add(uint64(len(res.Inserted)))
	p.deletes.Add(uint64(res.Deleted))
	p.expired.Add(uint64(len(res.Expired)))
	if res.Compacted {
		p.compactions.Add(1)
	}
	return res, nil
}

// plan resolves one push into the deterministic batch both detectors
// will apply: explicit deletes, then age expiry, then inserts, then count
// expiry, then (when tombstones have piled up) a compaction. Slot numbers
// for new inserts are the detector's next appends, so the whole batch is
// computable before anything mutates.
func (p *Pipeline) plan(back *incremental.Detector, u Update) (batch, Result, error) {
	var res Result
	// A full window expires one point per insert.
	b := batch{inserts: u.Inserts, first: back.Size(), deletes: make([]int, 0, len(u.Deletes)+len(u.Inserts))}
	gone := make(map[uint64]bool, len(u.Deletes))

	for _, id := range u.Deletes {
		slot, ok := p.idToSlot[id]
		if !ok || gone[id] {
			return batch{}, res, fmt.Errorf("stream: delete of unknown id %d", id)
		}
		gone[id] = true
		b.deletes = append(b.deletes, slot)
	}
	res.Deleted = len(u.Deletes)
	live := back.Len() - len(u.Deletes)

	// Age expiry: the window FIFO is ordered by insertion time, so expired
	// entries form a prefix (lazily skipping explicitly deleted IDs).
	if p.cfg.MaxAge > 0 && !u.Now.IsZero() {
		cutoff := u.Now.Add(-p.cfg.MaxAge).UnixNano()
		for len(p.window) > 0 {
			head := p.window[0]
			if _, alive := p.idToSlot[head.id]; !alive || gone[head.id] {
				p.window = p.window[1:]
				continue
			}
			if head.ts > cutoff {
				break
			}
			gone[head.id] = true
			b.deletes = append(b.deletes, p.idToSlot[head.id])
			res.Expired = append(res.Expired, head.id)
			p.window = p.window[1:]
			live--
		}
	}

	for range u.Inserts {
		res.Inserted = append(res.Inserted, p.nextID)
		p.nextID++
		live++
	}

	// Count expiry: evict the oldest live entries (including, when a batch
	// overflows the window by itself, entries inserted by this batch).
	if p.cfg.MaxPoints > 0 && live > p.cfg.MaxPoints {
		// The window FIFO does not yet contain this batch's inserts; treat
		// them as a virtual tail in insertion order.
		virt := 0
		for live > p.cfg.MaxPoints {
			var id uint64
			var slot int
			if len(p.window) > 0 {
				head := p.window[0]
				if _, alive := p.idToSlot[head.id]; !alive || gone[head.id] {
					p.window = p.window[1:]
					continue
				}
				id, slot = head.id, p.idToSlot[head.id]
				p.window = p.window[1:]
			} else if virt < len(res.Inserted) {
				id = res.Inserted[virt]
				slot = b.first + virt
				virt++
			} else {
				break
			}
			gone[id] = true
			b.deletes = append(b.deletes, slot)
			res.Expired = append(res.Expired, id)
			live--
		}
	}

	// Compaction: when tombstoned slots outnumber live points (and clear
	// the floor), fold a compact into this batch so both detectors shrink.
	slots := b.first + len(u.Inserts)
	if dead := slots - live; dead >= compactMinDead && dead > live {
		b.compact = true
		res.Compacted = true
	}
	return b, res, nil
}

// apply runs the planned batch on det as one update, returning the slot
// remap of its compaction (nil when it has none).
func (p *Pipeline) apply(det *incremental.Detector, b *batch) []int {
	if first, err := det.Update(b.inserts, b.deletes); err != nil || first != b.first {
		panic(fmt.Sprintf("stream: planned update at slot %d got %d, err=%v", b.first, first, err))
	}
	if b.compact {
		return det.Compact()
	}
	return nil
}

// bookkeep applies one batch's effects to the writer's ID maps: inserts
// map fresh IDs to their planned slots, deletes unmap their IDs, and a
// compaction remaps every surviving slot. ts stamps this batch's inserts
// in the window FIFO.
func (p *Pipeline) bookkeep(b *batch, remap []int, res *Result, ts int64) {
	for j, id := range res.Inserted {
		slot := b.first + j
		p.idToSlot[id] = slot
		for len(p.slotToID) <= slot {
			p.slotToID = append(p.slotToID, 0)
		}
		p.slotToID[slot] = id
	}
	for _, slot := range b.deletes {
		delete(p.idToSlot, p.slotToID[slot])
	}
	// Record this batch's inserts in the window FIFO (skipping ones the
	// same batch already expired).
	for _, id := range res.Inserted {
		if _, alive := p.idToSlot[id]; alive {
			p.window = append(p.window, entry{id: id, ts: ts})
		}
	}
	if remap != nil {
		idToSlot := make(map[uint64]int, len(p.idToSlot))
		slotToID := make([]uint64, 0, len(p.idToSlot))
		for old, ns := range remap {
			if ns < 0 {
				continue
			}
			id := p.slotToID[old]
			idToSlot[id] = ns
			for len(slotToID) <= ns {
				slotToID = append(slotToID, 0)
			}
			slotToID[ns] = id
		}
		p.idToSlot = idToSlot
		p.slotToID = slotToID
	}
}

// ScoreBatch returns the LOF each query would receive from a batch fit
// over the published window plus that query alone — bit-identical to that
// refit — along with the epoch sequence every score was computed against.
// Safe for concurrent use.
func (p *Pipeline) ScoreBatch(qs []geom.Point) ([]float64, uint64, error) {
	e := p.acquire()
	defer e.release()
	cur := e.cursors.Get().(index.Cursor)
	defer e.cursors.Put(cur)
	out := make([]float64, len(qs))
	for i, q := range qs {
		v, err := e.det.ScoreAtCursor(cur, q)
		if err != nil {
			return nil, e.seq, fmt.Errorf("stream: query %d: %w", i, err)
		}
		out[i] = v
	}
	return out, e.seq, nil
}

// LOFs returns the current window's IDs and maintained LOF values (live
// points only, in slot order) and the epoch they belong to. Safe for
// concurrent use.
func (p *Pipeline) LOFs() (ids []uint64, lofs []float64, seq uint64) {
	e := p.acquire()
	defer e.release()
	det := e.det
	for i := 0; i < det.Size(); i++ {
		if det.Deleted(i) {
			continue
		}
		ids = append(ids, e.ids[i])
		lofs = append(lofs, det.LOF(i))
	}
	return ids, lofs, e.seq
}

// Seq returns the published epoch sequence number.
func (p *Pipeline) Seq() uint64 { return p.pub.Load().seq }

// Stats snapshots the pipeline counters and the published epoch shape.
func (p *Pipeline) Stats() Stats {
	e := p.acquire()
	defer e.release()
	// Stats' own acquire holds one of the refs it reads; report the others.
	readers := int(e.refs.Load()) - 1
	if readers < 0 {
		readers = 0
	}
	return Stats{
		Seq:                  e.seq,
		Live:                 e.det.Len(),
		Slots:                e.det.Size(),
		Inserts:              p.inserts.Load(),
		Deletes:              p.deletes.Load(),
		Expired:              p.expired.Load(),
		Compactions:          p.compactions.Load(),
		MinPts:               p.cfg.MinPts,
		Dim:                  p.cfg.Dim,
		MaxPoints:            p.cfg.MaxPoints,
		LastPublishUnixNanos: p.lastPublish.Load(),
		Readers:              readers,
	}
}

// Window returns the live points of the published epoch as rows, in slot
// order — the dataset a batch refit of this epoch would see — plus the
// epoch sequence. The rows are copies.
func (p *Pipeline) Window() (data [][]float64, seq uint64) {
	e := p.acquire()
	defer e.release()
	det := e.det
	for i := 0; i < det.Size(); i++ {
		if det.Deleted(i) {
			continue
		}
		data = append(data, append([]float64(nil), det.At(i)...))
	}
	return data, e.seq
}

// MinPts returns the pipeline's MinPts value.
func (p *Pipeline) MinPts() int { return p.cfg.MinPts }

// Metric returns the configured metric name ("" meaning euclidean).
func (p *Pipeline) Metric() string { return p.cfg.Metric }

// Dim returns the dimensionality of ingested points.
func (p *Pipeline) Dim() int { return p.cfg.Dim }
