// Package shard implements the data plane of the sharded LOF serving tier:
// the partitioning of a fitted model's points into per-shard parts (Split),
// the binary snapshot format those parts replicate as, the binary frames of
// the shard data endpoint (frame.go), and the one question a Part answers
// exactly: "who are q's nearest neighbors among YOUR points?" (Reply, the
// one round a shard serves). A partition's k-distance is never smaller
// than the global one, so the union of per-shard candidate lists always
// contains the global neighborhood, which matdb.MergeCandidates then cuts
// exactly.
//
// A Part holds only points: the owned global ids, their coordinates and
// the fitted model's header. The materialized rows every later step of the
// LOF arithmetic reads stay with the coordinator, which scores with the
// model it fitted (lof.Model.ScoreQueryRows), so a sharded score is the
// single-node scorer's arithmetic over the same stored rows.
package shard

import (
	"fmt"

	"lof/internal/geom"
	"lof/internal/index"
	"lof/internal/index/grid"
	"lof/internal/index/kdtree"
	"lof/internal/index/linear"
	"lof/internal/matdb"
)

// Partitioner names a deterministic point→shard assignment. Both the
// splitter and the coordinator's check of each shard's candidates evaluate
// it, so it is part of the snapshot header: a coordinator never checks
// answers against a layout other than the one the shards actually hold.
type Partitioner uint8

const (
	// PartitionHash assigns ids by a multiplicative hash — balanced
	// regardless of id locality, the default.
	PartitionHash Partitioner = iota
	// PartitionRange assigns contiguous id blocks — preserves insertion
	// locality, useful when ids correlate with space or time.
	PartitionRange
)

// String names the partitioner.
func (p Partitioner) String() string {
	switch p {
	case PartitionHash:
		return "hash"
	case PartitionRange:
		return "range"
	default:
		return fmt.Sprintf("Partitioner(%d)", uint8(p))
	}
}

// ParsePartitioner maps the textual names used by flags ("hash", "range",
// "" for the default) to a Partitioner.
func ParsePartitioner(name string) (Partitioner, error) {
	switch name {
	case "", "hash":
		return PartitionHash, nil
	case "range":
		return PartitionRange, nil
	default:
		return 0, fmt.Errorf("shard: unknown partitioner %q", name)
	}
}

// Shard returns the shard owning global id under n shards of a total-point
// dataset. The assignment is stable for fixed (n, total).
func (p Partitioner) Shard(id uint32, n, total int) int {
	if n <= 1 {
		return 0
	}
	switch p {
	case PartitionRange:
		if total <= 0 {
			return 0
		}
		s := int(uint64(id) * uint64(n) / uint64(total))
		if s >= n {
			s = n - 1
		}
		return s
	default:
		// Fibonacci-style multiplicative hash: id bits spread into the high
		// word, reduced without modulo bias by the mul-shift trick.
		h := uint64(id) * 0x9e3779b97f4a7c15
		h ^= h >> 29
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 32
		return int((h * uint64(n)) >> 32 % uint64(n))
	}
}

// Meta is the fitted-model header every part replicates: the quantities
// candidate search needs, independent of any one partition.
type Meta struct {
	// Total is the global point count; it doubles as the virtual index a
	// query point occupies in merged rows.
	Total int
	// K is the materialized neighborhood size (MinPtsUB of the fit).
	K int
	// Distinct marks k-distinct-distance semantics.
	Distinct bool
	// Metric and Weights reproduce the fit's distance.
	Metric  string
	Weights []float64
}

// buildMetric reconstructs the fit's distance function from its header.
func buildMetric(m Meta) (geom.Metric, error) {
	if len(m.Weights) > 0 {
		return geom.NewWeightedEuclidean(m.Weights)
	}
	return geom.MetricByName(m.Metric)
}

// buildIndex constructs a local kNN index over a partition's points with
// the same auto-selection rule the fit uses, minus the approximate
// families: any exact index yields identical candidates, so the choice is
// performance-only.
func buildIndex(pts *geom.Points, metric geom.Metric) index.Index {
	switch dim := pts.Dim(); {
	case dim <= 3:
		return grid.New(pts, metric)
	case dim <= 16:
		return kdtree.New(pts, metric)
	default:
		return linear.New(pts, metric)
	}
}

// Part is one shard's sub-model: the owned points under their global ids,
// and a local kNN index over them. A Part is immutable after construction
// and safe for concurrent queries.
type Part struct {
	version   uint64
	shardID   int
	numShards int
	parter    Partitioner
	meta      Meta

	ids []uint32 // owned global ids, strictly increasing
	pts *geom.Points
	ix  index.Index
}

// Version returns the snapshot version the part was distributed under.
func (p *Part) Version() uint64 { return p.version }

// ShardID returns this part's position in the layout.
func (p *Part) ShardID() int { return p.shardID }

// NumShards returns the layout's shard count.
func (p *Part) NumShards() int { return p.numShards }

// Meta returns the fitted-model header.
func (p *Part) Meta() Meta { return p.meta }

// Len returns the number of owned points.
func (p *Part) Len() int { return len(p.ids) }

// finish validates the invariants the query path assumes and builds the
// part's local index.
func (p *Part) finish() error {
	if p.numShards < 1 || p.shardID < 0 || p.shardID >= p.numShards {
		return fmt.Errorf("shard: shard %d of %d is not a valid layout position", p.shardID, p.numShards)
	}
	if p.meta.K < 1 {
		return fmt.Errorf("shard: materialized K must be positive, got %d", p.meta.K)
	}
	if p.meta.Total >= 1<<32 {
		// Frames carry ids, and the query's virtual id Total, as u32.
		return fmt.Errorf("shard: %d points exceed the u32 id space", p.meta.Total)
	}
	if len(p.ids) != p.pts.Len() {
		return fmt.Errorf("shard: %d ids for %d points", len(p.ids), p.pts.Len())
	}
	m, err := buildMetric(p.meta)
	if err != nil {
		return fmt.Errorf("shard: part metric: %w", err)
	}
	for i, id := range p.ids {
		if i > 0 && id <= p.ids[i-1] {
			return fmt.Errorf("shard: owned ids not strictly increasing at position %d", i)
		}
		if int(id) >= p.meta.Total {
			return fmt.Errorf("shard: owned id %d outside total %d", id, p.meta.Total)
		}
	}
	if p.pts.Len() > 0 {
		p.ix = buildIndex(p.pts, m)
	}
	return nil
}

// validateQuery rejects queries the distance math would turn into garbage.
func (p *Part) validateQuery(q []float64) error {
	if len(q) != p.pts.Dim() {
		return fmt.Errorf("shard: query has %d dimensions, part has %d", len(q), p.pts.Dim())
	}
	if !geom.Point(q).Valid() {
		return fmt.Errorf("shard: query has non-finite coordinates")
	}
	return nil
}

// Reply answers a candidates request frame against the part: each query's
// k-nearest neighborhood among this part's points, with global ids — the
// shard's contribution to the global candidate set. Version pinning is the
// caller's concern.
func (p *Part) Reply(req *Frame) (*Frame, error) {
	if req.Kind != KindCandidatesRequest {
		return nil, fmt.Errorf("shard: a %v frame is not a request", req.Kind)
	}
	if req.Dim != p.pts.Dim() {
		return nil, fmt.Errorf("shard: queries have %d dimensions, part has %d", req.Dim, p.pts.Dim())
	}
	out := &Frame{
		Kind: KindCandidates, Distinct: p.meta.Distinct, Version: p.version,
		Shard: p.shardID, Dim: p.pts.Dim(), Counts: make([]uint32, 0, req.Groups()),
	}
	var cur index.Cursor
	if p.ix != nil {
		cur = index.NewCursor(p.ix)
	}
	var buf matdb.RowBuf
	for g := 0; g < req.Groups(); g++ {
		q := req.Query(g)
		if err := p.validateQuery(q); err != nil {
			return nil, fmt.Errorf("query %d: %w", g, err)
		}
		if cur == nil {
			out.Counts = append(out.Counts, 0) // empty partition contributes nothing
			continue
		}
		nn := buf.QueryCandidates(cur, p.pts, q, p.meta.K, p.meta.Distinct)
		for _, nb := range nn {
			out.Entries = append(out.Entries, index.Neighbor{Index: int(p.ids[nb.Index]), Dist: nb.Dist})
		}
		out.Counts = append(out.Counts, uint32(len(nn)))
	}
	return out, nil
}

// Split partitions a fitted model's points into n parts under the given
// assignment, stamped with the snapshot version. db supplies the header's
// materialized K and duplicate semantics; its rows stay with the caller.
func Split(pts *geom.Points, db *matdb.DB, meta Meta, n int, parter Partitioner, version uint64) ([]*Part, error) {
	if pts == nil || db == nil {
		return nil, fmt.Errorf("shard: nil points or database")
	}
	if n < 1 {
		return nil, fmt.Errorf("shard: need at least 1 shard, got %d", n)
	}
	total := pts.Len()
	if db.Len() != total {
		return nil, fmt.Errorf("shard: %d points but %d materialized rows", total, db.Len())
	}
	meta.Total = total
	meta.K = db.K
	meta.Distinct = db.IsDistinct()
	owned := make([][]uint32, n)
	for i := 0; i < total; i++ {
		s := parter.Shard(uint32(i), n, total)
		owned[s] = append(owned[s], uint32(i))
	}
	parts := make([]*Part, n)
	for s := range parts {
		p := &Part{
			version: version, shardID: s, numShards: n, parter: parter, meta: meta,
			ids: owned[s], pts: geom.NewPoints(pts.Dim(), len(owned[s])),
		}
		for _, id := range owned[s] {
			if err := p.pts.Append(pts.At(int(id))); err != nil {
				return nil, fmt.Errorf("shard: copying point %d: %w", id, err)
			}
		}
		if err := p.finish(); err != nil {
			return nil, err
		}
		parts[s] = p
	}
	return parts, nil
}
