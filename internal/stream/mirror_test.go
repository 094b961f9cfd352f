package stream

import (
	"math"
	"math/rand"
	"testing"

	"lof/internal/geom"
	"lof/internal/incremental"
	"lof/internal/index"
)

// sameDetectors reports the first observable difference between two
// detectors, or "" when they agree bit for bit: slot and live counts,
// tombstones, coordinates, LOFs, the kNN-with-ties answer from every live
// slot through each detector's own cursor, and the out-of-sample score of
// every live point's coordinates, which reads every maintained
// neighborhood and k-distance it reaches.
func sameDetectors(a, b *incremental.Detector) string {
	if a.Size() != b.Size() || a.Len() != b.Len() || a.LastAffected() != b.LastAffected() {
		return "slot, live or affected counts differ"
	}
	ca, cb := a.NewCursor(), b.NewCursor()
	for i := 0; i < a.Size(); i++ {
		if a.Deleted(i) != b.Deleted(i) {
			return "tombstones differ"
		}
		pa, pb := a.At(i), b.At(i)
		for d := range pa {
			if math.Float64bits(pa[d]) != math.Float64bits(pb[d]) {
				return "coordinates differ"
			}
		}
		if math.Float64bits(a.LOF(i)) != math.Float64bits(b.LOF(i)) {
			return "LOFs differ"
		}
		if a.Deleted(i) {
			continue
		}
		na := index.KNNWithTiesInto(ca, nil, pa, a.MinPts(), i)
		nb := index.KNNWithTiesInto(cb, nil, pb, b.MinPts(), i)
		if len(na) != len(nb) {
			return "kNN answers differ"
		}
		for j := range na {
			if na[j].Index != nb[j].Index || math.Float64bits(na[j].Dist) != math.Float64bits(nb[j].Dist) {
				return "kNN answers differ"
			}
		}
		sa, erra := a.ScoreAtCursor(ca, pa)
		sb, errb := b.ScoreAtCursor(cb, pb)
		if erra != nil || errb != nil || math.Float64bits(sa) != math.Float64bits(sb) {
			return "out-of-sample scores differ"
		}
	}
	return ""
}

// TestDetectorsAgreeAfterEveryApply runs TestOracleRandomOps' schedule and
// holds the published detector and the mirrored one to each other after
// every Apply.
func TestDetectorsAgreeAfterEveryApply(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	p, err := New(Config{Dim: 2, MinPts: 4, MaxPoints: 60})
	if err != nil {
		t.Fatal(err)
	}
	var live []uint64
	for batch := 0; batch < 60; batch++ {
		var u Update
		for n := rng.Intn(6); n > 0; n-- {
			pt := geom.Point{rng.NormFloat64() * 2, rng.NormFloat64() * 2}
			switch rng.Intn(10) {
			case 0:
				pt = geom.Point{3, 3} // duplicate pocket
			case 1:
				pt = geom.Point{80 + rng.NormFloat64(), -40} // far outlier
			}
			u.Inserts = append(u.Inserts, pt)
		}
		for n := rng.Intn(3); n > 0 && len(live) > 0; n-- {
			j := rng.Intn(len(live))
			u.Deletes = append(u.Deletes, live[j])
			live = append(live[:j], live[j+1:]...)
		}
		res, err := p.Apply(u)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, res.Inserted...)
		dead := map[uint64]bool{}
		for _, id := range res.Expired {
			dead[id] = true
		}
		kept := live[:0]
		for _, id := range live {
			if !dead[id] {
				kept = append(kept, id)
			}
		}
		live = kept
		if d := sameDetectors(p.a, p.b); d != "" {
			t.Fatalf("batch %d (epoch %d, %d live): %s", batch, res.Seq, res.Live, d)
		}
	}
}
