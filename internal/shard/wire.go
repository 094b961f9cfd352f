package shard

// SnapshotInfo is the acknowledgement a shard returns after installing a
// snapshot, and the layout portion of its readiness report — the one JSON
// answer of the shard endpoints that is not a frame. It lives here, next
// to the Part it describes, so server handlers and client methods share
// one definition.
type SnapshotInfo struct {
	Version uint64 `json:"version"`
	Shard   int    `json:"shard"`
	Shards  int    `json:"shards"`
	Points  int    `json:"points"`
}
