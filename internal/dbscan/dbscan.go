// Package dbscan implements the DBSCAN density-based clustering algorithm
// of Ester, Kriegel, Sander and Xu ([7] in the paper). The paper motivates
// LOF partly against clustering-based outlier handling: "the exceptions
// (called 'noise' in the context of clustering) are typically just
// tolerated or ignored ... the notions of outliers are essentially binary".
// This substrate makes that comparison executable: the noise-vs-LOF
// experiment contrasts DBSCAN's binary noise set with LOF's graded
// outlier factors on the same data.
package dbscan

import (
	"fmt"

	"lof/internal/geom"
	"lof/internal/index"
)

// Noise is the cluster id assigned to noise points.
const Noise = -1

// Params are the standard DBSCAN parameters.
type Params struct {
	// Eps is the neighborhood radius.
	Eps float64
	// MinPts is the core-point density threshold: a point is a core point
	// when its eps-neighborhood (including itself) holds at least MinPts
	// points.
	MinPts int
}

// Result is a flat clustering: cluster ids per point, Noise (-1) for noise.
type Result struct {
	// Labels[i] is point i's cluster id, or Noise.
	Labels []int
	// Clusters is the number of clusters found.
	Clusters int
	// CorePoint[i] reports whether point i satisfies the core condition.
	CorePoint []bool
}

// Run clusters all indexed points.
func Run(pts *geom.Points, ix index.Index, p Params) (*Result, error) {
	if pts == nil || ix == nil {
		return nil, fmt.Errorf("dbscan: nil points or index")
	}
	if p.MinPts < 1 {
		return nil, fmt.Errorf("dbscan: MinPts must be positive, got %d", p.MinPts)
	}
	if !(p.Eps > 0) {
		return nil, fmt.Errorf("dbscan: Eps must be positive, got %v", p.Eps)
	}
	n := pts.Len()
	res := &Result{
		Labels:    make([]int, n),
		CorePoint: make([]bool, n),
	}
	const unvisited = -2
	for i := range res.Labels {
		res.Labels[i] = unvisited
	}

	// neighborhood returns the eps-neighborhood including the point itself
	// (the DBSCAN convention for the MinPts count).
	cur := ix.NewCursor()
	var nn []index.Neighbor
	neighborhood := func(i int) []int {
		nn = cur.RangeInto(nn[:0], pts.At(i), p.Eps, i)
		out := make([]int, 0, len(nn)+1)
		out = append(out, i)
		for _, nb := range nn {
			out = append(out, nb.Index)
		}
		return out
	}

	cluster := 0
	for i := 0; i < n; i++ {
		if res.Labels[i] != unvisited {
			continue
		}
		seeds := neighborhood(i)
		if len(seeds) < p.MinPts {
			res.Labels[i] = Noise
			continue
		}
		// i is a core point: start a new cluster and expand.
		res.CorePoint[i] = true
		res.Labels[i] = cluster
		queue := append([]int(nil), seeds[1:]...) // exclude i itself
		for len(queue) > 0 {
			q := queue[0]
			queue = queue[1:]
			if res.Labels[q] == Noise {
				res.Labels[q] = cluster // border point claimed by the cluster
				continue
			}
			if res.Labels[q] != unvisited {
				continue
			}
			res.Labels[q] = cluster
			qn := neighborhood(q)
			if len(qn) >= p.MinPts {
				res.CorePoint[q] = true
				queue = append(queue, qn[1:]...)
			}
		}
		cluster++
	}
	res.Clusters = cluster
	return res, nil
}

// NoisePoints returns the indices labeled Noise.
func (r *Result) NoisePoints() []int {
	var out []int
	for i, l := range r.Labels {
		if l == Noise {
			out = append(out, i)
		}
	}
	return out
}

// ClusterSizes returns the member count per cluster id.
func (r *Result) ClusterSizes() []int {
	sizes := make([]int, r.Clusters)
	for _, l := range r.Labels {
		if l >= 0 {
			sizes[l]++
		}
	}
	return sizes
}
