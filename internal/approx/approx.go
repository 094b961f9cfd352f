// Package approx implements the approximate LOF fast paths: PLOF-style
// pruning, which certifies dense-core points as LOF ≈ 1 from k-distance /
// reachability bounds without ever evaluating them, and sensitivity-based
// coreset sampling (coreset.go), a principled importance-weighted upgrade
// of stride subsampling.
//
// The pruning pass rests on a range-wide, mean-aware form of the paper's
// Theorem 1. For any MinPts m in the swept [lb, ub] the reachability
// distance reach_m(p, o) = max(kd_m(o), d(p, o)) is bracketed by its
// values at the range ends, because the k-distance is monotone in m:
//
//	reach_m(p, o) ∈ [max(kd_lb(o), d), max(kd_ub(o), d)].
//
// lrd_m(p) is the reciprocal of the MEAN reachability over N_m(p), and
// every N_m(p) is a prefix of the stored row (neighbor lists are sorted by
// distance), so running prefix means of the bracket endpoints over the
// admissible prefix sizes bound lrd_m(p) for EVERY m simultaneously —
// far tighter than the min/max-of-terms bound of Theorem 1 as stated,
// which on Gaussian data is too wide to certify anything. LOF_m(p) is
// again a mean (of neighbor densities) over the same prefixes divided by
// lrd_m(p), so one more prefix pass brackets every swept LOF value, hence
// any max/min/mean aggregate. Because the interval width scales with the
// k-distance growth across the bracketed range, the swept range is split
// into segments of bounded MinPts ratio, each bracketed independently, and
// the per-segment intervals are unioned — O(log(ub/lb)) segments of three
// O(n·k) passes each, still far below the sweep's O(n·k·(ub−lb+1)) scans.
// Points whose interval fits inside [1/(1+eps), 1+eps] are certified ≈1
// and pruned; the surviving frontier is scored with core.LRD and core.LOF,
// the full sweep's own per-point bodies, and folded with its Aggregate, so
// unpruned scores match core.Sweep at the Float64bits level (see DESIGN.md
// §12 for the full argument).
package approx

import (
	"context"
	"fmt"
	"math"

	"lof/internal/core"
	"lof/internal/matdb"
	"lof/internal/pool"
)

// DefaultEps is the certification band half-width used when callers pass a
// non-positive eps: a point is pruned when its LOF provably lies within
// [1/(1+eps), 1+eps]. Segmented prefix-mean certificates on Gaussian
// cluster cores come out ~1.4 wide (upper/lower ratio), so the band must
// admit roughly [0.67, 1.5] to prune the dense bulk; 0.5 does — certifying
// ~85-90% of clustered 2D data over the default 10..20 sweep — while
// staying well below the ≥2 scores of clear outliers.
const DefaultEps = 0.5

// cancelStride mirrors core's polling cadence: loops poll ctx every this
// many points (a power of two, so the check is a mask).
const cancelStride = 256

func strideCancelled(ctx context.Context, i int) bool {
	return ctx != nil && i&(cancelStride-1) == 0 && ctx.Err() != nil
}

// Certified reports whether a [lower, upper] LOF interval fits the ≈1 band
// of half-width eps. NaN bounds (degenerate geometry, e.g. all-duplicate
// neighborhoods) fail both comparisons and are never certified.
func Certified(lower, upper, eps float64) bool {
	return upper <= 1+eps && lower >= 1/(1+eps)
}

// prefixBracket accumulates low/high term pairs in row order and tracks
// the minimum prefix mean of the low terms and the maximum prefix mean of
// the high terms over prefix sizes ≥ slo. Because every admissible
// neighborhood is a row prefix whose size lies in the tracked range, the
// resulting [mnLow, mxHigh] brackets the true mean for every MinPts.
type prefixBracket struct {
	slo          int
	loSum, hiSum float64
	n            int
	mnLow        float64
	mxHigh       float64
	any          bool
}

func newPrefixBracket(slo int) prefixBracket {
	if slo < 1 {
		slo = 1
	}
	return prefixBracket{slo: slo}
}

func (b *prefixBracket) add(lo, hi float64) {
	b.loSum += lo
	b.hiSum += hi
	b.n++
	if b.n < b.slo {
		return
	}
	inv := 1 / float64(b.n)
	if m := b.loSum * inv; !b.any || m < b.mnLow {
		b.mnLow = m
	}
	if m := b.hiSum * inv; !b.any || m > b.mxHigh {
		b.mxHigh = m
	}
	b.any = true
}

// bounds returns the bracket, degrading to the uninformative [0, +Inf]
// when no admissible prefix was seen.
func (b *prefixBracket) bounds() (mnLow, mxHigh float64) {
	if !b.any {
		return 0, math.Inf(1)
	}
	return b.mnLow, b.mxHigh
}

// segmentRatio caps the within-segment MinPts growth when a swept range is
// split for bounding. The bracket width a segment can achieve scales with
// its k-distance growth kd_hi/kd_lo ≈ (hi/lo)^(1/dim), so capping hi/lo at
// 4/3 keeps intervals tight enough to certify uniform cluster cores while
// the pass count stays logarithmic in the range width (3 segments for the
// default 10..20 sweep, against the sweep's 11 full scans).
const segmentRatio = 4.0 / 3

// segments splits [lb, ub] into consecutive subranges with hi ≤ lo·4/3.
func segments(lb, ub int) [][2]int {
	segs := make([][2]int, 0, 4)
	for lo := lb; lo <= ub; {
		hi := int(float64(lo) * segmentRatio)
		if hi > ub {
			hi = ub
		}
		if hi < lo {
			hi = lo
		}
		segs = append(segs, [2]int{lo, hi})
		lo = hi + 1
	}
	return segs
}

// Bounds computes, for every point, an interval [lower[i], upper[i]]
// guaranteed to contain LOF_m(i) for every MinPts m in [lb, ub] — and
// therefore any max/min/mean aggregate over that range. The range is split
// into segments of modest k-distance growth, each bounded with three
// O(n·k) passes, and the per-segment intervals are unioned; total cost is
// O(n·k·log(ub/lb)), far below the sweep's O(n·k·(ub−lb+1)). The pool
// parallelizes each pass (nil for sequential). Points with empty
// neighborhoods score exactly 1 at every m and get the degenerate
// interval [1, 1].
func Bounds(db *matdb.DB, lb, ub int, p *pool.Pool) (lower, upper []float64, err error) {
	if lb > ub {
		return nil, nil, fmt.Errorf("approx: MinPtsLB=%d exceeds MinPtsUB=%d", lb, ub)
	}
	if err := db.CheckMinPts(lb); err != nil {
		return nil, nil, err
	}
	if err := db.CheckMinPts(ub); err != nil {
		return nil, nil, err
	}
	n := db.Len()
	for si, seg := range segments(lb, ub) {
		segLower, segUpper := boundsSegment(db, seg[0], seg[1], p)
		if si == 0 {
			lower, upper = segLower, segUpper
			continue
		}
		for i := 0; i < n; i++ {
			if segLower[i] < lower[i] {
				lower[i] = segLower[i]
			}
			if segUpper[i] > upper[i] {
				upper[i] = segUpper[i]
			}
		}
	}
	return lower, upper, nil
}

// boundsSegment brackets LOF_m(i) for every m in one pre-validated
// subrange [lb, ub] with three chunked passes.
func boundsSegment(db *matdb.DB, lb, ub int, p *pool.Pool) (lower, upper []float64) {
	n := db.Len()
	kdLB := make([]float64, n)
	kdUB := make([]float64, n)
	p.Chunks(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			kdLB[i] = db.KDistance(i, lb)
			kdUB[i] = db.KDistance(i, ub)
		}
	})
	// lrdLow/lrdHigh bracket lrd_m(i) for every m: the reciprocals of the
	// extreme prefix means of the per-term reachability brackets.
	lrdLow := make([]float64, n)
	lrdHigh := make([]float64, n)
	p.Chunks(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			nn := db.Neighborhood(i, ub)
			if len(nn) == 0 {
				lrdLow[i], lrdHigh[i] = math.Inf(1), math.Inf(1) // isolated: exact lrd is +Inf
				continue
			}
			b := newPrefixBracket(len(db.Neighborhood(i, lb)))
			for _, nb := range nn {
				b.add(core.ReachDist(kdLB[nb.Index], nb.Dist), core.ReachDist(kdUB[nb.Index], nb.Dist))
			}
			mnLow, mxHigh := b.bounds()
			lrdLow[i] = 1 / mxHigh // a mean of zeros gives +Inf, matching the sum==0 rule
			lrdHigh[i] = 1 / mnLow
		}
	})
	lower = make([]float64, n)
	upper = make([]float64, n)
	p.Chunks(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			nn := db.Neighborhood(i, ub)
			if len(nn) == 0 {
				lower[i], upper[i] = 1, 1 // LOF of an isolated point is defined as 1
				continue
			}
			// LOF_m(i) = mean over N_m(i) of lrd_m(q), divided by lrd_m(i):
			// prefix-bracket the numerator mean with the same admissible sizes.
			b := newPrefixBracket(len(db.Neighborhood(i, lb)))
			for _, nb := range nn {
				b.add(lrdLow[nb.Index], lrdHigh[nb.Index])
			}
			numLow, numHigh := b.bounds()
			lower[i], upper[i] = boundRatio(numLow, numHigh, lrdLow[i], lrdHigh[i])
		}
	})
	return lower, upper
}

// boundRatio turns a numerator bracket (mean neighbor density) and a
// denominator bracket (own density) into an LOF interval, widening any
// degenerate combination (NaN from 0·Inf or Inf/Inf in duplicate-heavy
// neighborhoods, or an inverted interval) to the uninformative [0, +Inf]
// instead of certifying through it.
func boundRatio(numLow, numHigh, lrdLow, lrdHigh float64) (lower, upper float64) {
	lower = numLow / lrdHigh
	upper = numHigh / lrdLow
	if math.IsNaN(lower) || math.IsNaN(upper) || lower > upper {
		return 0, math.Inf(1)
	}
	return lower, upper
}

// Result is the outcome of a pruned sweep over a fitted database.
type Result struct {
	// Scores holds the aggregated sweep score of every point: exactly 1 for
	// pruned points, the bit-exact sweep value for the frontier.
	Scores []float64
	// Pruned marks the points certified as LOF ≈ 1 without evaluation.
	Pruned []bool
	// Lower and Upper are the certified per-point LOF intervals from Bounds.
	Lower, Upper []float64
	// Frontier is the number of points evaluated exactly.
	Frontier int
	// Eps is the certification half-width actually used.
	Eps float64
}

// PrunedCount returns the number of certified points.
func (r *Result) PrunedCount() int { return len(r.Pruned) - r.Frontier }

// PruneSweep is the approximate counterpart of core.SweepCtx + Aggregate:
// it certifies dense-core points as LOF ≈ 1 from Bounds and evaluates only
// the uncertain frontier, per MinPts value, with the sweep's per-point
// bodies core.LRD and core.LOF. Frontier scores are Float64bits-identical
// to the full sweep's aggregate; pruned scores are 1 with the exact value
// provably in [1/(1+eps), 1+eps]. A non-positive eps means DefaultEps. The
// pool parallelizes across MinPts values and within each scan (nil for
// sequential); ctx cancels between and inside scans (nil never cancels).
func PruneSweep(ctx context.Context, db *matdb.DB, lb, ub int, eps float64, agg core.Aggregate, p *pool.Pool) (*Result, error) {
	if eps <= 0 {
		eps = DefaultEps
	}
	lower, upper, err := Bounds(db, lb, ub, p)
	if err != nil {
		return nil, err
	}
	n := db.Len()
	res := &Result{
		Scores: make([]float64, n),
		Pruned: make([]bool, n),
		Lower:  lower,
		Upper:  upper,
		Eps:    eps,
	}
	frontier := make([]int, 0, n/8+1)
	for i := 0; i < n; i++ {
		if Certified(lower[i], upper[i], eps) {
			res.Pruned[i] = true
			res.Scores[i] = 1
		} else {
			frontier = append(frontier, i)
		}
	}
	res.Frontier = len(frontier)
	if len(frontier) == 0 {
		return res, nil
	}

	// Per-MinPts exact evaluation of the frontier. Only densities the
	// frontier actually reads — the frontier points and their m-neighbors —
	// are computed, so a scan costs O(n + |frontier|·k²) instead of the full
	// sweep's O(n·k). Densities and LOFs come from core.LRD and core.LOF,
	// the sweep's own per-point bodies, so frontier values are the sweep's
	// bit for bit.
	nm := ub - lb + 1
	series := make([][]float64, nm)
	scan := func(j int) {
		m := lb + j
		kd := make([]float64, n)
		p.Chunks(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if strideCancelled(ctx, i) {
					return
				}
				kd[i] = db.KDistance(i, m)
			}
		})
		needed := make([]bool, n)
		for _, i := range frontier {
			needed[i] = true
			for _, nb := range db.Neighborhood(i, m) {
				needed[nb.Index] = true
			}
		}
		list := make([]int, 0, len(frontier)*(m+1))
		for i, ok := range needed {
			if ok {
				list = append(list, i)
			}
		}
		lrd := make([]float64, n)
		p.Chunks(len(list), func(lo, hi int) {
			for li := lo; li < hi; li++ {
				if strideCancelled(ctx, li) {
					return
				}
				i := list[li]
				lrd[i] = core.LRD(db.Neighborhood(i, m), kd)
			}
		})
		vals := make([]float64, len(frontier))
		p.Chunks(len(frontier), func(lo, hi int) {
			for fi := lo; fi < hi; fi++ {
				if strideCancelled(ctx, fi) {
					return
				}
				i := frontier[fi]
				vals[fi] = core.LOF(db.Neighborhood(i, m), lrd, lrd[i])
			}
		})
		series[j] = vals
	}
	if ctx != nil {
		err = p.EachCtx(ctx, nm, scan)
	} else {
		p.Each(nm, scan)
	}
	if err != nil {
		return nil, fmt.Errorf("approx: pruned sweep cancelled: %w", err)
	}
	for fi, v := range (&core.SweepResult{Values: series}).Aggregate(agg) {
		res.Scores[frontier[fi]] = v
	}
	return res, nil
}

// Summaries is the per-point state QueryBounds reads, built once per
// fitted model (NewSummaries) so that bounding a query touches only the
// query's own neighbors, never their neighborhoods. For every fitted point
// o and every bounding segment [lb_s, ub_s] of the model's range it holds
// one section:
//
//   - o's own k-distance envelope [kd_{lb_s−1}(o), kd_{ub_s}(o)]
//     (kd_0 := 0, ceiling per kdCeiling), which brackets o's merged
//     k-distance;
//   - the minimum low and maximum high prefix mean over o's stored
//     reach-dist brackets (shape A of storedBracket), which do not
//     involve q at all (+Inf and −Inf when no stored prefix is
//     admissible);
//   - the stored reach-dist prefix sums that shape B adds the query's
//     reach-dist bracket [loQ, hiQ] to: one (low, high) pair per merged
//     neighborhood size k = lb_s, …, |N_{ub_s}(o)|+1, each summing the
//     first k−1 stored brackets.
//
// The summaries are computed with the very expressions the per-query
// derivation evaluates, in the same order, so QueryBounds is bit-identical
// to folding o's stored row afresh for every query (DESIGN.md §12). A
// Summaries is read-only after construction and safe for concurrent use.
type Summaries struct {
	lb, ub int
	segs   [][2]int
	// The section of point o for segment s is
	// sections[at[b]:at[b+1]] with b = o·len(segs)+s, laid out as
	// floor, ceiling, shape-A low, shape-A high, then the prefix pairs.
	sections []float64
	at       []int
	// inv[k] is 1/float64(k), the prefix-mean multiplier for size k.
	inv []float64
}

// sectionHeader is the number of floats before a section's prefix pairs.
const sectionHeader = 4

// NewSummaries builds the QueryBounds summaries of db for the MinPts range
// [lb, ub], parallelized over p (nil for sequential). It costs one pass
// per bounding segment over the stored rows, O(n·k·log(ub/lb)), and
// holds 2·(ub_s−lb_s+4) floats per point per segment (plus ties).
func NewSummaries(db *matdb.DB, lb, ub int, p *pool.Pool) (*Summaries, error) {
	if lb > ub {
		return nil, fmt.Errorf("approx: MinPtsLB=%d exceeds MinPtsUB=%d", lb, ub)
	}
	if err := db.CheckMinPts(lb); err != nil {
		return nil, err
	}
	if err := db.CheckMinPts(ub); err != nil {
		return nil, err
	}
	segs := segments(lb, ub)
	ns, n := len(segs), db.Len()
	s := &Summaries{lb: lb, ub: ub, segs: segs, at: make([]int, n*ns+1)}
	maxLen := 0
	for o := 0; o < n; o++ {
		for si, seg := range segs {
			rl := len(db.Neighborhood(o, seg[1]))
			maxLen = max(maxLen, rl)
			b := o*ns + si
			s.at[b+1] = s.at[b] + sectionHeader + 2*max(rl+2-seg[0], 0)
		}
	}
	s.sections = make([]float64, s.at[n*ns])
	s.inv = make([]float64, maxLen+2)
	for k := 1; k < len(s.inv); k++ {
		s.inv[k] = 1 / float64(k)
	}
	kdFloor := make([]float64, n)
	kdUB := make([]float64, n)
	for si, seg := range segs {
		lbS, ubS := seg[0], seg[1]
		p.Chunks(n, func(start, end int) {
			for o := start; o < end; o++ {
				kdFloor[o] = 0
				if lbS >= 2 {
					kdFloor[o] = db.KDistance(o, lbS-1)
				}
				kdUB[o] = kdCeiling(db, o, ubS)
			}
		})
		p.Chunks(n, func(start, end int) {
			for o := start; o < end; o++ {
				b := o*ns + si
				sec := s.sections[s.at[b]:s.at[b+1]]
				out := sec[sectionHeader:]
				mnLow, mxHigh := math.Inf(1), math.Inf(-1)
				var loSum, hiSum float64
				for t, r := range db.Neighborhood(o, ubS) {
					lo := core.ReachDist(kdFloor[r.Index], r.Dist)
					hi := core.ReachDist(kdUB[r.Index], r.Dist)
					// Admissible sizes: merged neighborhoods have at least
					// lb members and at most |N_ub(o)|+1 (the stored
					// ub-neighborhood plus q).
					if t+1 >= lbS {
						out[0], out[1] = loSum, hiSum // shape B: first t stored entries + q
						out = out[2:]
						inv := s.inv[t+1]
						if m := (loSum + lo) * inv; m < mnLow { // shape A: first t+1 stored entries
							mnLow = m
						}
						if m := (hiSum + hi) * inv; m > mxHigh {
							mxHigh = m
						}
					}
					loSum += lo
					hiSum += hi
				}
				if len(out) == 2 {
					out[0], out[1] = loSum, hiSum // shape B at full width
				}
				sec[0], sec[1], sec[2], sec[3] = kdFloor[o], kdUB[o], mnLow, mxHigh
			}
		})
	}
	return s, nil
}

// kdCeiling is the upper end of o's merged k-distance envelope: its stored
// ub-distance, which no insertion can grow — unless o's distinct-mode row
// holds fewer than ub distinct positions. Then the stored value is clamped
// to the farthest position there is, a query at a new position can sit
// beyond it, and no finite ceiling holds.
func kdCeiling(db *matdb.DB, o, ub int) float64 {
	if row := db.Row(o); row.IsDistinct() && len(row.Ranks()) < ub {
		return math.Inf(1)
	}
	return db.KDistance(o, ub)
}

// QueryBounds computes an interval containing the out-of-sample LOF of a
// query — the score of q in data ∪ {q} — for every MinPts in the
// summaries' range, using only the query's probed row (which IS q's exact
// merged-world neighborhood) and the summaries of the STORED rows of the
// fitted database. The inserted point shifts stored neighborhoods by at
// most one rank, so for any stored point o and m ∈ [lb, ub]:
//
//	kd'_m(o) ∈ [kd_{lb-1}(o), kd_ub(o)]   (kd_0 := 0)
//
// where kd' is the k-distance in data ∪ {q}: the upper end because adding
// a point never grows a k-distance and kd is monotone in m; the lower end
// because removing the inserted point restores at least the (m−1)-th
// stored distance. (A distinct-mode row with fewer than ub distinct
// positions has no finite upper end; see kdCeiling.) The merged
// m-neighborhood of a stored o is a prefix of its stored row with q
// possibly spliced in, so prefix means over both splice shapes bracket o's
// merged density. Certified queries skip merged-row assembly and
// evaluation entirely and report 1.
func QueryBounds(s *Summaries, qRow matdb.Row) (lower, upper float64) {
	if len(qRow.Neighborhood(s.ub)) == 0 {
		return 1, 1 // isolated query scores exactly 1 at every MinPts
	}
	for si := range s.segs {
		segLower, segUpper := s.querySegment(qRow, si)
		if si == 0 {
			lower, upper = segLower, segUpper
			continue
		}
		lower = math.Min(lower, segLower)
		upper = math.Max(upper, segUpper)
	}
	return lower, upper
}

// querySegment is the QueryBounds body for bounding segment si.
func (s *Summaries) querySegment(qRow matdb.Row, si int) (lower, upper float64) {
	lb, ub := s.segs[si][0], s.segs[si][1]
	nn := qRow.Neighborhood(ub)
	if len(nn) == 0 {
		return 1, 1
	}
	kdqLB, kdqUB := qRow.KDistance(lb), qRow.KDistance(ub)
	// Direct side: qRow is exact, so its prefixes are the true merged
	// neighborhoods; only the neighbor k-distances are enveloped.
	direct := newPrefixBracket(len(qRow.Neighborhood(lb)))
	num := newPrefixBracket(len(qRow.Neighborhood(lb)))
	for _, o := range nn {
		b := o.Index*len(s.segs) + si
		sec := s.sections[s.at[b]:s.at[b+1]]
		direct.add(core.ReachDist(sec[0], o.Dist), core.ReachDist(sec[1], o.Dist))
		oLow, oHigh := s.storedBracket(sec, lb, core.ReachDist(kdqLB, o.Dist), core.ReachDist(kdqUB, o.Dist))
		num.add(oLow, oHigh)
	}
	meanLow, meanHigh := direct.bounds()
	numLow, numHigh := num.bounds()
	return boundRatio(numLow, numHigh, 1/meanHigh, 1/meanLow)
}

// storedBracket brackets the merged-world density lrd'_m(o) of a stored
// point o for every m of a segment starting at lb, from o's section sec
// and the inserted query's reachability bracket [loQ, hiQ]. Each merged
// m-neighborhood is either a stored-row prefix (shape A, summarized by its
// extremes) or a stored-row prefix with its last slot taken by q (shape B,
// the stored prefix sums plus the query's bracket). No value folded here
// is NaN or −0 — every term is a non-negative distance — so the builtin
// min and max agree with the per-query fold's comparisons and the
// extremes do not depend on folding order.
func (s *Summaries) storedBracket(sec []float64, lb int, loQ, hiQ float64) (lrdLow, lrdHigh float64) {
	sums := sec[sectionHeader:]
	if len(sums) == 0 {
		return 0, math.Inf(1) // no admissible neighborhood: uninformative
	}
	mnLow, mxHigh := sec[2], sec[3]
	for k, inv := range s.inv[lb : lb+len(sums)/2] {
		mnLow = min(mnLow, (sums[2*k]+loQ)*inv)
		mxHigh = max(mxHigh, (sums[2*k+1]+hiQ)*inv)
	}
	return 1 / mxHigh, 1 / mnLow
}
