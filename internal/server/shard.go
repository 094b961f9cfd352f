package server

import (
	"errors"
	"fmt"
	"io"
	"net/http"

	"lof/internal/front"
	"lof/internal/shard"
	"lof/internal/trace"
)

// Shard role: a lofserve process can serve as one shard of a scatter-gather
// tier instead of (or in addition to) holding a whole model. The coordinator
// pushes an encoded shard.Part — the shard's points, their global ids and
// the fit's header, no materialized rows — over the replication endpoint;
// the shard installs it atomically, builds its local kNN index, and then
// answers kNN candidate queries pinned to the installed snapshot version —
// the one round a sharded score asks of it. Everything after the
// candidates happens on the coordinator, which holds the model:
//
//	POST /v1/shard/snapshot    octet-stream shard.Part; atomic install
//	POST /v1/shard/candidates  per-partition kNN candidates for a batch
//	GET  /readyz               readiness: 503 while no state is installed
//	                           or a snapshot swap is in flight
//
// Candidates requests and answers are binary frames (shard.Frame), not
// JSON; error answers are the front end's JSON bodies.
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

// handleShardCandidates answers one candidates request: it reads the body
// under MaxBodyBytes (413 beyond), decodes the request frame (400 when it
// is not a well-formed candidates request, a JSON body included), bounds
// its query count by MaxBatch (413), pins the installed part (409, or 503 +
// Retry-After for a stale version), and writes the part's answer frame.
// Errors stay the front end's JSON bodies.
func (s *Server) handleShardCandidates(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			front.WriteError(w, r, http.StatusRequestEntityTooLarge, "request body too large")
			return
		}
		front.WriteError(w, r, http.StatusBadRequest, fmt.Sprintf("reading request body: %v", err))
		return
	}
	req, err := shard.DecodeFrame(body)
	if err != nil {
		front.WriteError(w, r, http.StatusBadRequest, fmt.Sprintf("invalid request frame: %v", err))
		return
	}
	if req.Kind != shard.KindCandidatesRequest {
		front.WriteError(w, r, http.StatusBadRequest, fmt.Sprintf("a %v frame does not belong on %s", req.Kind, r.URL.Path))
		return
	}
	n := req.Groups()
	if n == 0 {
		front.WriteError(w, r, http.StatusBadRequest, "request frame carries no queries")
		return
	}
	if n > s.cfg.MaxBatch {
		front.WriteError(w, r, http.StatusRequestEntityTooLarge, fmt.Sprintf("batch of %d exceeds limit %d", n, s.cfg.MaxBatch))
		return
	}
	p := s.shardPart(w, r, req.Version)
	if p == nil {
		return
	}
	front.SetBatch(r.Context(), n)
	if sp := trace.SpanFrom(r.Context()); sp != nil {
		sp.SetAttrInt("queries", int64(n))
		sp.SetAttrInt("version", int64(p.Version()))
		sp.SetAttrInt("shard", int64(p.ShardID()))
	}
	out, err := p.Reply(req)
	if err != nil {
		// Bad coordinates or dimensions mean the caller disagrees with the
		// installed layout — a permanent error for this request, not a
		// transient one; the coordinator does not retry it.
		front.WriteError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(out.Encode()) // the status is sent; a failed body write has no one to report to
}

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
