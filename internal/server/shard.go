package server

import (
	"errors"
	"fmt"
	"net/http"

	"lof/internal/front"
	"lof/internal/shard"
	"lof/internal/trace"
)

// Shard role: a lofserve process can serve as one shard of a scatter-gather
// tier instead of (or in addition to) holding a whole model. The coordinator
// pushes an encoded shard.Part over the replication endpoint; the shard
// installs it atomically and then answers candidate and merged-row queries
// pinned to the installed snapshot version:
//
//	POST /v1/shard/snapshot    octet-stream shard.Part; atomic install
//	POST /v1/shard/candidates  per-partition kNN candidates for a batch
//	POST /v1/shard/rows        merged rows of owned points for a batch
//	GET  /readyz               readiness: 503 while no state is installed
//	                           or a snapshot swap is in flight
//
// Version pinning is the consistency contract: every data request carries
// the snapshot version the caller routed against, and a shard holding a
// different version answers 503 with a Retry-After hint — a retriable
// signal the coordinator's repair loop clears by re-pushing — never an
// answer from a layout the caller did not ask about. /healthz stays pure
// liveness (always 200 while the process serves); /readyz is the routing
// gate.

// handleShardSnapshot decodes and installs a pushed partition. The snapshot
// format carries a CRC32 trailer, so a truncated or corrupt push is a
// descriptive 400, never a silently wrong partition. Installation holds the
// swap gate: /readyz reports 503 for the duration, while in-flight data
// requests keep answering from the previous part.
func (s *Server) handleShardSnapshot(w http.ResponseWriter, r *http.Request) {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	s.swapping.Store(true)
	defer s.swapping.Store(false)
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxSnapshotBytes)
	p, err := shard.ReadPart(r.Body)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			front.WriteError(w, r, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("snapshot exceeds the %d-byte limit", s.cfg.MaxSnapshotBytes))
			return
		}
		front.WriteError(w, r, http.StatusBadRequest, fmt.Sprintf("rejecting snapshot: %v", err))
		return
	}
	front.SetBatch(r.Context(), p.Len())
	s.part.Store(p)
	s.version.Store(p.Version())
	s.m.snapshots.Add(1)
	front.WriteJSON(w, http.StatusOK, shard.SnapshotInfo{
		Version: p.Version(),
		Shard:   p.ShardID(),
		Shards:  p.NumShards(),
		Points:  p.Len(),
	})
}

// shardPart admits a data request against the installed part, enforcing the
// version pin. A nil return means the response has been written.
func (s *Server) shardPart(w http.ResponseWriter, r *http.Request, version uint64) *shard.Part {
	p := s.part.Load()
	if p == nil {
		front.WriteError(w, r, http.StatusConflict, "no shard partition installed; push a snapshot first")
		return nil
	}
	if version != p.Version() {
		s.m.stale.Add(1)
		w.Header().Set("Retry-After", "1")
		front.WriteError(w, r, http.StatusServiceUnavailable,
			fmt.Sprintf("stale snapshot version: request pinned %d, shard holds %d", version, p.Version()))
		return nil
	}
	return p
}

func (s *Server) handleShardCandidates(w http.ResponseWriter, r *http.Request) {
	var req shard.CandidatesRequest
	if !front.Decode(w, r, s.cfg.MaxBodyBytes, &req) {
		return
	}
	if len(req.Queries) == 0 {
		front.WriteError(w, r, http.StatusBadRequest, "candidates requires a non-empty queries array")
		return
	}
	if len(req.Queries) > s.cfg.MaxBatch {
		front.WriteError(w, r, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("batch of %d exceeds limit %d", len(req.Queries), s.cfg.MaxBatch))
		return
	}
	p := s.shardPart(w, r, req.Version)
	if p == nil {
		return
	}
	front.SetBatch(r.Context(), len(req.Queries))
	if sp := trace.SpanFrom(r.Context()); sp != nil {
		sp.SetAttrInt("queries", int64(len(req.Queries)))
		sp.SetAttrInt("version", int64(p.Version()))
		sp.SetAttrInt("shard", int64(p.ShardID()))
	}
	out := make([][]shard.WireCandidate, len(req.Queries))
	for i, q := range req.Queries {
		cs, err := p.Candidates(q)
		if err != nil {
			front.WriteError(w, r, http.StatusBadRequest, fmt.Sprintf("query %d: %v", i, err))
			return
		}
		out[i] = cs
	}
	front.WriteJSON(w, http.StatusOK, shard.CandidatesResponse{
		Version: p.Version(), Shard: p.ShardID(), Candidates: out,
	})
}

func (s *Server) handleShardRows(w http.ResponseWriter, r *http.Request) {
	var req shard.RowsRequest
	if !front.Decode(w, r, s.cfg.MaxBodyBytes, &req) {
		return
	}
	if len(req.Queries) == 0 {
		front.WriteError(w, r, http.StatusBadRequest, "rows requires a non-empty queries array")
		return
	}
	if len(req.Queries) > s.cfg.MaxBatch {
		front.WriteError(w, r, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("batch of %d exceeds limit %d", len(req.Queries), s.cfg.MaxBatch))
		return
	}
	p := s.shardPart(w, r, req.Version)
	if p == nil {
		return
	}
	front.SetBatch(r.Context(), len(req.Queries))
	if sp := trace.SpanFrom(r.Context()); sp != nil {
		sp.SetAttrInt("queries", int64(len(req.Queries)))
		sp.SetAttrInt("version", int64(p.Version()))
		sp.SetAttrInt("shard", int64(p.ShardID()))
	}
	out := make([][]shard.WireRow, len(req.Queries))
	for i, rq := range req.Queries {
		rows, err := p.MergedRows(rq.Query, rq.IDs)
		if err != nil {
			// An unowned id means the caller's routing disagrees with the
			// installed layout — a permanent error for this request, not a
			// transient one; the coordinator re-resolves, it does not retry.
			front.WriteError(w, r, http.StatusBadRequest, fmt.Sprintf("rows request %d: %v", i, err))
			return
		}
		out[i] = rows
	}
	front.WriteJSON(w, http.StatusOK, shard.RowsResponse{
		Version: p.Version(), Shard: p.ShardID(), Rows: out,
	})
}

func (s *Server) handleShardKDists(w http.ResponseWriter, r *http.Request) {
	var req shard.KDistsRequest
	if !front.Decode(w, r, s.cfg.MaxBodyBytes, &req) {
		return
	}
	if len(req.IDs) == 0 {
		front.WriteError(w, r, http.StatusBadRequest, "kdists requires a non-empty ids array")
		return
	}
	if len(req.IDs) > s.cfg.MaxBatch*maxKDistsPerQuery {
		front.WriteError(w, r, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("batch of %d ids exceeds limit %d", len(req.IDs), s.cfg.MaxBatch*maxKDistsPerQuery))
		return
	}
	p := s.shardPart(w, r, req.Version)
	if p == nil {
		return
	}
	front.SetBatch(r.Context(), len(req.IDs))
	if sp := trace.SpanFrom(r.Context()); sp != nil {
		sp.SetAttrInt("ids", int64(len(req.IDs)))
		sp.SetAttrInt("version", int64(p.Version()))
		sp.SetAttrInt("shard", int64(p.ShardID()))
	}
	lo, hi, err := p.KDists(req.IDs, req.Lo, req.Hi)
	if err != nil {
		// Unowned ids and out-of-range ranks mean the caller disagrees with
		// the installed layout — permanent for this request, like rows.
		front.WriteError(w, r, http.StatusBadRequest, fmt.Sprintf("kdists request: %v", err))
		return
	}
	front.WriteJSON(w, http.StatusOK, shard.KDistsResponse{
		Version: p.Version(), Shard: p.ShardID(), Lo: lo, Hi: hi,
	})
}

// maxKDistsPerQuery scales the kdists id limit relative to MaxBatch: each
// scored query contributes at most its candidate closure (~K ids), so the
// id batch for a full query batch is legitimately much larger than the
// query batch itself.
const maxKDistsPerQuery = 64

// ReadyInfo is the /readyz body: whether this process should receive
// routed traffic, and the snapshot version its answers would be pinned to.
type ReadyInfo struct {
	Ready    bool   `json:"ready"`
	Version  uint64 `json:"version"`
	Swapping bool   `json:"swapping"`
	// Role is "shard" when a partition is installed, "single" otherwise.
	Role string `json:"role"`
	// Model reports whether a full model is loaded (single role).
	Model bool `json:"model"`
	// Shard layout, present in shard role.
	Shard  int `json:"shard,omitempty"`
	Shards int `json:"shards,omitempty"`
	Points int `json:"points"`
}

// handleReadyz reports routing readiness: 200 once a model or partition is
// installed and no snapshot swap is in flight, 503 otherwise. Liveness
// stays on /healthz, which never returns 503 — an unready replica is still
// a healthy process.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	p := s.part.Load()
	m := s.Model()
	info := ReadyInfo{
		Version:  s.version.Load(),
		Swapping: s.swapping.Load(),
		Role:     "single",
		Model:    m != nil,
	}
	if p != nil {
		info.Role = "shard"
		info.Shard = p.ShardID()
		info.Shards = p.NumShards()
		info.Points = p.Len()
	}
	info.Ready = !info.Swapping && (p != nil || m != nil)
	status := http.StatusOK
	if !info.Ready {
		status = http.StatusServiceUnavailable
	}
	front.WriteJSON(w, status, info)
}
