package optics

import (
	"math"
	"math/rand"
	"testing"

	"lof/internal/geom"
	"lof/internal/index/linear"
)

func twoClusters(t *testing.T, seed int64) (*geom.Points, int, int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pts := geom.NewPoints(2, 0)
	for i := 0; i < 60; i++ { // dense cluster at origin
		if err := pts.Append(geom.Point{rng.NormFloat64() * 0.3, rng.NormFloat64() * 0.3}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 60; i++ { // sparser cluster at (20, 0)
		if err := pts.Append(geom.Point{20 + rng.NormFloat64()*1.2, rng.NormFloat64() * 1.2}); err != nil {
			t.Fatal(err)
		}
	}
	return pts, 60, 60
}

func TestRunOrderingCoversAllPointsOnce(t *testing.T) {
	pts, _, _ := twoClusters(t, 1)
	ix := linear.New(pts, nil)
	res, err := Run(pts, ix, Params{MinPts: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Order) != pts.Len() || len(res.Reach) != pts.Len() {
		t.Fatalf("order=%d reach=%d", len(res.Order), len(res.Reach))
	}
	seen := map[int]bool{}
	for _, p := range res.Order {
		if seen[p] {
			t.Fatalf("point %d appears twice", p)
		}
		seen[p] = true
	}
}

func TestRunSeparatesClusters(t *testing.T) {
	pts, n1, _ := twoClusters(t, 2)
	ix := linear.New(pts, nil)
	res, err := Run(pts, ix, Params{MinPts: 5})
	if err != nil {
		t.Fatal(err)
	}
	// A threshold between the intra-cluster reachabilities (≤ ~1.5) and
	// the inter-cluster jump (~18) must yield exactly two clusters that
	// coincide with the ground truth.
	clusters, noise := res.ExtractClusters(3, 5)
	if len(clusters) != 2 {
		t.Fatalf("clusters=%d noise=%d", len(clusters), len(noise))
	}
	for _, c := range clusters {
		firstCluster := c.Members[0] < n1
		for _, m := range c.Members {
			if (m < n1) != firstCluster {
				t.Fatalf("cluster mixes ground-truth clusters")
			}
		}
	}
	if len(noise) > 2 {
		t.Fatalf("noise=%v", noise)
	}
	// The dense cluster has the smaller mean reachability.
	var dense, sparse Cluster
	if clusters[0].Members[0] < n1 {
		dense, sparse = clusters[0], clusters[1]
	} else {
		dense, sparse = clusters[1], clusters[0]
	}
	if dense.MeanReach >= sparse.MeanReach {
		t.Fatalf("dense mean reach %v not below sparse %v", dense.MeanReach, sparse.MeanReach)
	}
}

func TestRunWithEpsBound(t *testing.T) {
	pts, _, _ := twoClusters(t, 3)
	ix := linear.New(pts, nil)
	res, err := Run(pts, ix, Params{MinPts: 5, Eps: 3})
	if err != nil {
		t.Fatal(err)
	}
	// With eps below the cluster gap, reachabilities never bridge the
	// clusters: at least two Undefined entries (component starts).
	undefined := 0
	for _, r := range res.Reach {
		if math.IsInf(r, 1) {
			undefined++
		}
	}
	if undefined < 2 {
		t.Fatalf("undefined starts=%d, want >=2", undefined)
	}
	// No finite reachability may exceed eps... except via core distances,
	// which are also bounded by eps here.
	for k, r := range res.Reach {
		if !math.IsInf(r, 1) && r > 3+1e-9 {
			t.Fatalf("reach[%d]=%v exceeds eps", k, r)
		}
	}
}

func TestRunValidation(t *testing.T) {
	pts, _, _ := twoClusters(t, 4)
	ix := linear.New(pts, nil)
	if _, err := Run(nil, ix, Params{MinPts: 5}); err == nil {
		t.Error("nil points accepted")
	}
	if _, err := Run(pts, nil, Params{MinPts: 5}); err == nil {
		t.Error("nil index accepted")
	}
	if _, err := Run(pts, ix, Params{MinPts: 1}); err == nil {
		t.Error("MinPts=1 accepted")
	}
	if _, err := Run(pts, ix, Params{MinPts: pts.Len()}); err == nil {
		t.Error("MinPts=n accepted")
	}
}

func TestCoreDistancesMatchKDistance(t *testing.T) {
	pts, _, _ := twoClusters(t, 5)
	ix := linear.New(pts, nil)
	const minPts = 4
	// With eps covering the whole dataset, every core distance equals the
	// plain MinPts-distance.
	res, err := Run(pts, ix, Params{MinPts: minPts, Eps: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pts.Len(); i++ {
		nn := ix.NewCursor().KNNInto(nil, pts.At(i), minPts, i)
		want := nn[len(nn)-1].Dist
		if math.Abs(res.Core[i]-want) > 1e-12 {
			t.Fatalf("core[%d]=%v want %v", i, res.Core[i], want)
		}
	}
}

func TestAssignment(t *testing.T) {
	clusters := []Cluster{{Members: []int{0, 2}}, {Members: []int{3}}}
	got := Assignment(5, clusters)
	want := []int{0, -1, 0, 1, -1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("assignment=%v want %v", got, want)
		}
	}
}

func TestExtractClustersMinSize(t *testing.T) {
	res := &Result{
		Order: []int{0, 1, 2, 3, 4},
		Reach: []float64{Undefined, 0.5, 9, 0.5, 0.5},
	}
	clusters, noise := res.ExtractClusters(1, 3)
	if len(clusters) != 1 {
		t.Fatalf("clusters=%v", clusters)
	}
	// Run 1 is {0,1} (too small → noise); run 2 is {2,3,4} (2 heads the
	// new dense region).
	if len(clusters[0].Members) != 3 || clusters[0].Members[0] != 2 {
		t.Fatalf("members=%v", clusters[0].Members)
	}
	if len(noise) != 2 {
		t.Fatalf("noise=%v", noise)
	}
}

func TestSingletonRunsAreNoise(t *testing.T) {
	res := &Result{
		Order: []int{0, 1, 2},
		Reach: []float64{Undefined, 9, 9},
	}
	clusters, noise := res.ExtractClusters(1, 2)
	if len(clusters) != 0 || len(noise) != 3 {
		t.Fatalf("clusters=%v noise=%v", clusters, noise)
	}
}
