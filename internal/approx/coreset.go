package approx

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"lof/internal/matdb"
)

// Sensitivity sampling (Lucic/Bachem/Krause): instead of the stride
// subsample's "every j-th point", draw points with probability
// proportional to an upper bound on how much each one can matter, and the
// sample approximates the density landscape with bounded distortion. For
// LOF the natural per-point contribution proxy is the k-distance — the
// reciprocal of local density: sparse points (cluster fringes, outliers,
// small clusters) are exactly the ones a uniform or stride sample
// decimates first, and exactly the ones whose absence moves downstream
// LOF scores the most. Mixing half the mass uniformly keeps every point's
// probability bounded below, the standard lightweight-coreset guard that
// keeps the dense bulk covered.

// sensitivityMix is the uniform share of the sampling distribution.
const sensitivityMix = 0.5

// Sensitivity returns the normalized sampling distribution q over the
// database's points: q(i) = mix/n + (1−mix)·kd_minPts(i)/Σ kd_minPts.
// Non-finite k-distances (possible only for isolated points in degenerate
// databases) contribute zero to the density term. When every k-distance is
// zero (all points coincide) the distribution degrades to uniform.
func Sensitivity(db *matdb.DB, minPts int) ([]float64, error) {
	if err := db.CheckMinPts(minPts); err != nil {
		return nil, err
	}
	n := db.Len()
	if n == 0 {
		return nil, fmt.Errorf("approx: sensitivity of an empty database")
	}
	kd := make([]float64, n)
	var sum float64
	for i := range kd {
		if d := db.KDistance(i, minPts); !math.IsInf(d, 1) {
			kd[i] = d
			sum += d
		}
	}
	out := make([]float64, n)
	uniform := 1 / float64(n)
	if sum == 0 {
		for i := range out {
			out[i] = uniform
		}
		return out, nil
	}
	for i := range out {
		out[i] = sensitivityMix*uniform + (1-sensitivityMix)*kd[i]/sum
	}
	return out, nil
}

// Coreset draws m distinct point indices from the sensitivity distribution
// by systematic resampling: m evenly spaced positions with one shared
// random offset walk the cumulative distribution, so the draw is a single
// O(n) pass, has lower variance than independent sampling, and is fully
// deterministic for a fixed seed — every replica deriving a coreset from
// the same model selects the same points. Duplicated draws (a point
// spanning several positions) are collapsed and the freed slots go to the
// highest-sensitivity undrawn points, so the result always has exactly
// min(m, n) distinct indices, ascending.
func Coreset(db *matdb.DB, minPts, m int, seed int64) ([]int, error) {
	if m <= 0 {
		return nil, fmt.Errorf("approx: coreset size must be positive, got %d", m)
	}
	q, err := Sensitivity(db, minPts)
	if err != nil {
		return nil, err
	}
	n := db.Len()
	if m >= n {
		indices := make([]int, n)
		for i := range indices {
			indices[i] = i
		}
		return indices, nil
	}
	u := rand.New(rand.NewSource(seed)).Float64()
	counts := make([]int, n)
	cum := 0.0
	j := 0
	for i := 0; i < n && j < m; i++ {
		cum += q[i]
		for j < m && (float64(j)+u)/float64(m) < cum {
			counts[i]++
			j++
		}
	}
	for ; j < m; j++ {
		counts[n-1]++ // float accumulation slack: park leftovers on the tail
	}
	drawn := 0
	for _, c := range counts {
		if c > 0 {
			drawn++
		}
	}
	if missing := m - drawn; missing > 0 {
		// Slots freed by multiply-drawn points go to the most sensitive
		// points not yet in the sample, largest q first (ties by index for
		// determinism).
		undrawn := make([]int, 0, n-drawn)
		for i, c := range counts {
			if c == 0 {
				undrawn = append(undrawn, i)
			}
		}
		sort.Slice(undrawn, func(a, b int) bool {
			if q[undrawn[a]] != q[undrawn[b]] {
				return q[undrawn[a]] > q[undrawn[b]]
			}
			return undrawn[a] < undrawn[b]
		})
		for _, i := range undrawn[:missing] {
			counts[i] = 1
		}
	}
	indices := make([]int, 0, m)
	for i, c := range counts {
		if c > 0 {
			indices = append(indices, i)
		}
	}
	return indices, nil
}
