package shard

import "lof/internal/front"

// JSON types of the shard endpoints that are not frames: the snapshot
// push acknowledgement and the pruned path's k-distance envelopes. They
// live here, next to the Part methods that produce them, so server
// handlers and client methods share one definition.

// SnapshotInfo is the acknowledgement a shard returns after installing a
// snapshot, and the layout portion of its readiness report.
type SnapshotInfo struct {
	Version uint64 `json:"version"`
	Shard   int    `json:"shard"`
	Shards  int    `json:"shards"`
	Points  int    `json:"points"`
}

// KDistsRequest asks a shard for the stored k-distances of owned points at
// two neighborhood ranks — the envelope the coordinator's pruned scoring
// path certifies against instead of fetching full second-hop rows. Lo may
// be zero, meaning the degenerate 0-distance (the envelope floor when the
// swept lower bound is 1).
type KDistsRequest struct {
	Version uint64   `json:"version"`
	Lo      int      `json:"lo"`
	Hi      int      `json:"hi"`
	IDs     []uint32 `json:"ids"`
}

// KDistsResponse carries the two per-id k-distance arrays, in request
// order. Hi is +Inf where no finite ceiling holds (see Part.KDists), which
// front.Float carries through JSON.
type KDistsResponse struct {
	Version uint64        `json:"version"`
	Shard   int           `json:"shard"`
	Lo      []float64     `json:"lo"`
	Hi      []front.Float `json:"hi"`
}
