// Package shard implements the data plane of the sharded LOF serving tier:
// the partitioning of a globally fitted model into per-shard sub-snapshots
// (Split, with Join reassembling the fitted rows), the binary snapshot
// format those sub-models replicate as, the binary frames of the shard
// data endpoint (frame.go), and the two questions a Part answers exactly:
//
//   - "who are q's nearest neighbors among YOUR points?" (Reply, the one
//     round a shard serves): a partition's k-distance is never smaller
//     than the global one, so the union of per-shard candidate lists
//     always contains the global neighborhood, which
//     matdb.MergeCandidates then cuts exactly;
//   - "what row would YOUR point i occupy in data ∪ {q}?" (MergedRow):
//     matdb.RowBuf.Merge over the stored row, with a halo of neighbor
//     coordinates covering the distinct-mode rank recomputation. The
//     coordinator asks its own copy of the split, not the shards.
//
// The correctness hinge is that a Part carries its points' *global*
// materialized rows — the neighborhoods computed by the one global fit —
// not rows recomputed against the partition. Everything the LOF
// arithmetic consumes — k-distances, reachability distances, neighborhood
// sizes — derives from those answers, and the in-process scorer computes
// them with the same matdb helper, so the coordinator's evaluation
// (core.EvalRange) is bit-identical to a single-node model's.
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
// splitter and the coordinator's row routing evaluate it, so it is part of
// the snapshot header: a coordinator never routes against a layout other
// than the one the shards actually hold.
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
// candidate search and row splicing need, independent of any one partition.
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

// Part is one shard's sub-model: the owned points, their global
// materialized rows, and (for distinct mode) the halo of neighbor
// coordinates those rows reference. A Part is immutable after construction
// and safe for concurrent queries.
type Part struct {
	version   uint64
	shardID   int
	numShards int
	parter    Partitioner
	meta      Meta

	ids  []uint32 // owned global ids, strictly increasing
	pts  *geom.Points
	rows [][]index.Neighbor // global-id neighbor lists, one per owned point
	rks  [][]int32          // distinct ranks, parallel to rows (distinct only)
	halo map[uint32]geom.Point

	local  map[uint32]int32
	ix     index.Index
	metric geom.Metric
	kern   geom.Kernel
}

// Version returns the snapshot version the part was distributed under.
func (p *Part) Version() uint64 { return p.version }

// ShardID returns this part's position in the layout.
func (p *Part) ShardID() int { return p.shardID }

// NumShards returns the layout's shard count.
func (p *Part) NumShards() int { return p.numShards }

// Partitioner returns the assignment rule the layout was split with.
func (p *Part) Partitioner() Partitioner { return p.parter }

// Meta returns the fitted-model header.
func (p *Part) Meta() Meta { return p.meta }

// Len returns the number of owned points.
func (p *Part) Len() int { return len(p.ids) }

// Dim returns the dimensionality of the fitted data.
func (p *Part) Dim() int { return p.pts.Dim() }

// finish derives the part's serving state — the id map, metric and local
// index — and validates the invariants the query path assumes.
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
	if len(p.ids) != p.pts.Len() || len(p.ids) != len(p.rows) {
		return fmt.Errorf("shard: %d ids, %d points, %d rows", len(p.ids), p.pts.Len(), len(p.rows))
	}
	if p.meta.Distinct && len(p.rks) != len(p.rows) {
		return fmt.Errorf("shard: distinct part has %d rank lists for %d rows", len(p.rks), len(p.rows))
	}
	m, err := buildMetric(p.meta)
	if err != nil {
		return fmt.Errorf("shard: part metric: %w", err)
	}
	p.metric = m
	p.kern = geom.NewKernel(p.pts, m)
	p.local = make(map[uint32]int32, len(p.ids))
	for i, id := range p.ids {
		if i > 0 && id <= p.ids[i-1] {
			return fmt.Errorf("shard: owned ids not strictly increasing at position %d", i)
		}
		if int(id) >= p.meta.Total {
			return fmt.Errorf("shard: owned id %d outside total %d", id, p.meta.Total)
		}
		p.local[id] = int32(i)
	}
	if p.meta.Distinct {
		// The splice path resolves every row neighbor's coordinates; verify
		// the halo covers them now so serving never hits a hole.
		for i, nn := range p.rows {
			for _, nb := range nn {
				if _, owned := p.local[uint32(nb.Index)]; owned {
					continue
				}
				if _, ok := p.halo[uint32(nb.Index)]; !ok {
					return fmt.Errorf("shard: row %d references neighbor %d outside the owned set and halo", p.ids[i], nb.Index)
				}
			}
		}
	}
	if p.pts.Len() > 0 {
		p.ix = buildIndex(p.pts, p.metric)
	}
	return nil
}

// at resolves a global id to coordinates, for the distinct-rank
// recomputation inside row splicing. finish verified coverage, so a miss is
// an invariant violation, not a data condition.
func (p *Part) at(id int) geom.Point {
	if pos, ok := p.local[uint32(id)]; ok {
		return p.pts.At(int(pos))
	}
	if pt, ok := p.halo[uint32(id)]; ok {
		return pt
	}
	panic(fmt.Sprintf("shard: unresolvable neighbor id %d", id))
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
// k-nearest neighborhood among this part's points — the shard's
// contribution to the global candidate set — with global ids and, in
// distinct mode, coordinates, so the coordinator can recompute distinct
// ranks across shards. Version pinning is the caller's concern.
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
			if p.meta.Distinct {
				out.Coords = append(out.Coords, p.pts.At(nb.Index)...)
			}
		}
		out.Counts = append(out.Counts, uint32(len(nn)))
	}
	return out, nil
}

// MergedRow returns the row owned point id occupies in data ∪ {q} as every
// MinPts ≤ ub sees it: matdb.RowBuf.Merge over the stored global row, built
// in buf, with the query under the virtual index Meta().Total — the call
// the in-process scorer makes for the same point, so the row is the one it
// reads. q must have the part's dimension and finite coordinates; the
// caller validates it once per query. An id this part does not own means
// the caller's routing disagrees with the layout, and ub above the
// materialized K asks for neighbors the fit never stored: both are errors.
func (p *Part) MergedRow(buf *matdb.RowBuf, id int, q geom.Point, ub int) (matdb.Row, error) {
	if ub > p.meta.K {
		return matdb.Row{}, fmt.Errorf("shard: MinPtsUB=%d exceeds materialized K=%d", ub, p.meta.K)
	}
	pos, ok := p.local[uint32(id)]
	if id < 0 || id >= p.meta.Total || !ok {
		return matdb.Row{}, fmt.Errorf("shard: point %d is not owned by shard %d/%d", id, p.shardID, p.numShards)
	}
	var ranks []int32
	if p.meta.Distinct {
		ranks = p.rks[pos]
	}
	stored := matdb.NewRow(p.rows[pos], ranks, p.meta.Distinct)
	return buf.Merge(stored, q, p.meta.Total, p.kern.Dist(int(pos), q), p.at, p.meta.K, ub), nil
}

// Split partitions a globally fitted model — its points and materialization
// database — into n parts under the given assignment, stamped with the
// snapshot version. Each part receives its points' global rows verbatim
// and, for distinct databases, the halo of neighbor coordinates those rows
// reference.
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
	parts := make([]*Part, n)
	owned := make([][]uint32, n)
	for i := 0; i < total; i++ {
		s := parter.Shard(uint32(i), n, total)
		owned[s] = append(owned[s], uint32(i))
	}
	for s := 0; s < n; s++ {
		p := &Part{
			version: version, shardID: s, numShards: n, parter: parter, meta: meta,
			ids: owned[s], pts: geom.NewPoints(pts.Dim(), len(owned[s])),
			rows: make([][]index.Neighbor, 0, len(owned[s])),
		}
		if meta.Distinct {
			p.rks = make([][]int32, 0, len(owned[s]))
			p.halo = make(map[uint32]geom.Point)
		}
		ownedSet := make(map[uint32]bool, len(owned[s]))
		for _, id := range owned[s] {
			ownedSet[id] = true
		}
		for _, id := range owned[s] {
			if err := p.pts.Append(pts.At(int(id))); err != nil {
				return nil, fmt.Errorf("shard: copying point %d: %w", id, err)
			}
			row := db.Row(int(id))
			p.rows = append(p.rows, row.Neighbors)
			if meta.Distinct {
				p.rks = append(p.rks, row.Ranks())
				for _, nb := range row.Neighbors {
					gid := uint32(nb.Index)
					if !ownedSet[gid] {
						if _, ok := p.halo[gid]; !ok {
							p.halo[gid] = pts.At(nb.Index).Clone()
						}
					}
				}
			}
		}
		if err := p.finish(); err != nil {
			return nil, err
		}
		parts[s] = p
	}
	return parts, nil
}

// Join reassembles the global materialization database from every part of
// one layout, given in shard order — the inverse of Split's row copy. Each
// point's stored row and distinct ranks are copied verbatim into global id
// order, so the joined database equals the one Split was given, entry for
// entry.
func Join(parts []*Part) (*matdb.DB, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("shard: no parts to join")
	}
	first := parts[0]
	n, distinct := first.meta.Total, first.meta.Distinct
	rows := make([][]index.Neighbor, n)
	rks := make([][]int32, n)
	owned, entries, rankEntries := 0, 0, 0
	for s, p := range parts {
		if p.shardID != s || p.numShards != len(parts) || p.version != first.version || p.parter != first.parter ||
			p.meta.Total != n || p.meta.K != first.meta.K || p.meta.Distinct != distinct {
			return nil, fmt.Errorf("shard: part %d (shard %d of %d, version %d) is not shard %d of the %d-part version %d layout",
				s, p.shardID, p.numShards, p.version, s, len(parts), first.version)
		}
		// Ids rise strictly within a part and the partitioner gives each id
		// one owner, so parts owning n ids in total own every id once.
		for i, id := range p.ids {
			if p.parter.Shard(id, len(parts), n) != s {
				return nil, fmt.Errorf("shard: part %d holds point %d, which its partitioner assigns elsewhere", s, id)
			}
			rows[id] = p.rows[i]
			entries += len(p.rows[i])
			if distinct {
				rks[id] = p.rks[i]
				rankEntries += len(p.rks[i])
			}
		}
		owned += p.Len()
	}
	if owned != n {
		return nil, fmt.Errorf("shard: parts own %d of %d points", owned, n)
	}
	flat := make([]index.Neighbor, 0, entries)
	rowOffs := make([]uint64, n+1)
	var ranks []int32
	var rankOffs []uint64
	if distinct {
		ranks = make([]int32, 0, rankEntries)
		rankOffs = make([]uint64, n+1)
	}
	for i, r := range rows {
		flat = append(flat, r...)
		rowOffs[i+1] = uint64(len(flat))
		if distinct {
			ranks = append(ranks, rks[i]...)
			rankOffs[i+1] = uint64(len(ranks))
		}
	}
	return matdb.FromFlat(first.meta.K, n, flat, rowOffs, ranks, rankOffs, distinct)
}
