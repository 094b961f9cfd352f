// Stream endpoints: online ingestion into an epoch-based streaming LOF
// pipeline (internal/stream), served alongside the batch fit/score API.
//
//	POST /v1/stream/init   create (or replace) the pipeline
//	POST /v1/stream        apply one batch: inserts, deletes, window expiry
//	POST /v1/stream/score  score queries against the published epoch
//	GET  /v1/stream/lofs   window IDs and maintained LOF values
//	GET  /v1/stream/stats  pipeline counters and epoch shape
//	POST /v1/stream/freeze refit the current window into a standard model
//	                       and install it as the batch serving model
//
// Pushes are atomic per batch (all-or-nothing) and serialized by the
// pipeline's single-writer lock; scores never block behind a push — they
// read the last published epoch. Freeze bridges the streaming and batch
// worlds: the frozen model serves /v1/score and can be saved in the
// standard snapshot format.
package server

import (
	"fmt"
	"net/http"
	"time"

	"lof"
	"lof/internal/front"
	"lof/internal/geom"
	"lof/internal/stream"
	"lof/internal/trace"
)

// StreamConfig is the JSON shape of a stream init request's configuration,
// mirroring stream.Config with a millisecond age bound.
type StreamConfig struct {
	Dim    int    `json:"dim"`
	MinPts int    `json:"minPts"`
	Metric string `json:"metric,omitempty"`
	// MaxPoints bounds the sliding window by count; zero means unbounded.
	MaxPoints int `json:"maxPoints,omitempty"`
	// MaxAgeMillis bounds the window by age; zero means unbounded.
	MaxAgeMillis int64 `json:"maxAgeMillis,omitempty"`
}

// Pipeline translates the JSON configuration into a validated pipeline.
func (c StreamConfig) Pipeline() (*stream.Pipeline, error) {
	if c.MaxAgeMillis < 0 {
		return nil, fmt.Errorf("maxAgeMillis must be non-negative, got %d", c.MaxAgeMillis)
	}
	return stream.New(stream.Config{
		Dim:       c.Dim,
		MinPts:    c.MinPts,
		Metric:    c.Metric,
		MaxPoints: c.MaxPoints,
		MaxAge:    time.Duration(c.MaxAgeMillis) * time.Millisecond,
	})
}

type streamInitRequest struct {
	Config StreamConfig `json:"config"`
}

type streamPushRequest struct {
	Inserts [][]float64 `json:"inserts,omitempty"`
	Deletes []uint64    `json:"deletes,omitempty"`
	// NowUnixNanos is the batch timestamp for age expiry; zero takes the
	// server clock. Deterministic replays and tests pin it explicitly.
	NowUnixNanos int64 `json:"nowUnixNanos,omitempty"`
}

type streamPushResponse struct {
	Epoch     uint64   `json:"epoch"`
	Inserted  []uint64 `json:"inserted,omitempty"`
	Expired   []uint64 `json:"expired,omitempty"`
	Deleted   int      `json:"deleted"`
	Live      int      `json:"live"`
	Compacted bool     `json:"compacted,omitempty"`
}

type streamScoreRequest struct {
	Queries [][]float64 `json:"queries"`
}

type streamScoreResponse struct {
	Scores []front.Float `json:"scores"`
	Epoch  uint64        `json:"epoch"`
}

type streamLOFsResponse struct {
	IDs   []uint64      `json:"ids"`
	LOFs  []front.Float `json:"lofs"`
	Epoch uint64        `json:"epoch"`
}

type streamFreezeResponse struct {
	modelInfo
	Epoch uint64 `json:"epoch"`
}

// Stream returns the current streaming pipeline, nil when none was
// initialized (via the endpoint or SetStream).
func (s *Server) Stream() *stream.Pipeline { return s.stream.Load() }

// SetStream installs p as the streaming pipeline (lofserve startup flags
// use this); nil uninstalls.
func (s *Server) SetStream(p *stream.Pipeline) { s.stream.Store(p) }

func (s *Server) handleStreamInit(w http.ResponseWriter, r *http.Request) {
	var req streamInitRequest
	if !front.Decode(w, r, s.cfg.MaxBodyBytes, &req) {
		return
	}
	pl, err := req.Config.Pipeline()
	if err != nil {
		front.WriteError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	// Replacing a live pipeline is a deliberate reset: in-flight reads
	// finish against the epoch they acquired, subsequent requests see the
	// fresh pipeline.
	s.stream.Store(pl)
	front.WriteJSON(w, http.StatusOK, pl.Stats())
}

// streamOr409 fetches the pipeline or answers 409 with the init hint.
func (s *Server) streamOr409(w http.ResponseWriter, r *http.Request) *stream.Pipeline {
	pl := s.stream.Load()
	if pl == nil {
		front.WriteError(w, r, http.StatusConflict, "no streaming pipeline; POST /v1/stream/init first or start with -stream-dim")
	}
	return pl
}

// toGeomPoints reinterprets JSON rows as geom points without copying; the
// pipeline copies on insert and scoring never retains the rows.
func toGeomPoints(rows [][]float64) []geom.Point {
	out := make([]geom.Point, len(rows))
	for i, row := range rows {
		out[i] = geom.Point(row)
	}
	return out
}

func (s *Server) handleStreamPush(w http.ResponseWriter, r *http.Request) {
	pl := s.streamOr409(w, r)
	if pl == nil {
		return
	}
	var req streamPushRequest
	if !front.Decode(w, r, s.cfg.MaxBodyBytes, &req) {
		return
	}
	if len(req.Inserts)+len(req.Deletes) == 0 {
		front.WriteError(w, r, http.StatusBadRequest, "stream push requires inserts or deletes")
		return
	}
	if len(req.Inserts)+len(req.Deletes) > s.cfg.MaxBatch {
		front.WriteError(w, r, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("batch of %d exceeds limit %d", len(req.Inserts)+len(req.Deletes), s.cfg.MaxBatch))
		return
	}
	front.SetBatch(r.Context(), len(req.Inserts)+len(req.Deletes))
	now := s.now()
	if req.NowUnixNanos != 0 {
		now = time.Unix(0, req.NowUnixNanos)
	}
	res, err := pl.Apply(stream.Update{
		Inserts: toGeomPoints(req.Inserts),
		Deletes: req.Deletes,
		Now:     now,
	})
	if err != nil {
		front.WriteError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	if sp := trace.SpanFrom(r.Context()); sp != nil {
		for _, stage := range []struct {
			name string
			d    time.Duration
		}{
			{"stream/plan", res.Timing.Plan},
			{"stream/apply", res.Timing.Apply},
			{"stream/drain", res.Timing.Drain},
			{"stream/replay", res.Timing.Replay},
		} {
			child := sp.Child(stage.name)
			child.SetAttrInt("epoch", int64(res.Seq))
			child.EndIn(stage.d)
		}
		if len(res.Expired) > 0 {
			sp.SetAttrInt("expired", int64(len(res.Expired)))
		}
	}
	s.m.streamBatches.Add(1)
	s.m.streamInserts.Add(int64(len(res.Inserted)))
	s.m.streamExpired.Add(int64(len(res.Expired)))
	front.WriteJSON(w, http.StatusOK, streamPushResponse{
		Epoch:     res.Seq,
		Inserted:  res.Inserted,
		Expired:   res.Expired,
		Deleted:   res.Deleted,
		Live:      res.Live,
		Compacted: res.Compacted,
	})
}

func (s *Server) handleStreamScore(w http.ResponseWriter, r *http.Request) {
	pl := s.streamOr409(w, r)
	if pl == nil {
		return
	}
	var req streamScoreRequest
	if !front.Decode(w, r, s.cfg.MaxBodyBytes, &req) {
		return
	}
	if len(req.Queries) == 0 {
		front.WriteError(w, r, http.StatusBadRequest, "stream score requires a non-empty queries array")
		return
	}
	if len(req.Queries) > s.cfg.MaxBatch {
		front.WriteError(w, r, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("batch of %d exceeds limit %d", len(req.Queries), s.cfg.MaxBatch))
		return
	}
	front.SetBatch(r.Context(), len(req.Queries))
	scores, seq, err := pl.ScoreBatch(toGeomPoints(req.Queries))
	if err != nil {
		front.WriteError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	s.m.scorePoints.Add(int64(len(req.Queries)))
	front.WriteJSON(w, http.StatusOK, streamScoreResponse{Scores: front.Floats(scores), Epoch: seq})
}

func (s *Server) handleStreamLOFs(w http.ResponseWriter, r *http.Request) {
	pl := s.streamOr409(w, r)
	if pl == nil {
		return
	}
	ids, lofs, seq := pl.LOFs()
	front.WriteJSON(w, http.StatusOK, streamLOFsResponse{IDs: ids, LOFs: front.Floats(lofs), Epoch: seq})
}

func (s *Server) handleStreamStats(w http.ResponseWriter, r *http.Request) {
	pl := s.streamOr409(w, r)
	if pl == nil {
		return
	}
	front.WriteJSON(w, http.StatusOK, pl.Stats())
}

func (s *Server) handleStreamFreeze(w http.ResponseWriter, r *http.Request) {
	pl := s.streamOr409(w, r)
	if pl == nil {
		return
	}
	start := time.Now()
	m, seq, err := s.FreezeStreamInstall()
	if err != nil {
		front.WriteError(w, r, http.StatusConflict, err.Error())
		return
	}
	if child, _ := trace.StartSpan(r.Context(), "stream/freeze"); child != nil {
		child.SetAttrInt("epoch", int64(seq))
		child.SetAttrInt("objects", int64(m.Len()))
		child.EndIn(time.Since(start))
	}
	front.WriteJSON(w, http.StatusOK, streamFreezeResponse{modelInfo: infoFor(m), Epoch: seq})
}

// FreezeStreamInstall freezes the stream window and installs the result
// as the serving model, counting the freeze in lof_stream_freezes_total.
// Both the /v1/stream/freeze handler and lofserve's periodic freeze loop
// go through here, so the metric covers every install path.
func (s *Server) FreezeStreamInstall() (*lof.Model, uint64, error) {
	pl := s.Stream()
	if pl == nil {
		return nil, 0, fmt.Errorf("no stream pipeline configured")
	}
	m, seq, err := FreezeStream(pl)
	if err != nil {
		return nil, seq, err
	}
	s.SetModel(m)
	s.m.streamFreezes.Add(1)
	return m, seq, nil
}

// FreezeStream refits the pipeline's published window into a standard
// batch model — the bridge from the streaming epoch to the persistent
// model snapshot format. The refit is exact (same MinPts and metric as the
// pipeline), so the frozen model's stored LOFs equal the epoch's
// maintained values. lofserve's periodic freeze loop uses this too.
func FreezeStream(pl *stream.Pipeline) (*lof.Model, uint64, error) {
	window, seq := pl.Window()
	if len(window) <= pl.MinPts() {
		return nil, seq, fmt.Errorf("window of %d points cannot support MinPts=%d; need at least %d",
			len(window), pl.MinPts(), pl.MinPts()+1)
	}
	det, err := lof.New(lof.Config{MinPts: pl.MinPts(), Metric: pl.Metric()})
	if err != nil {
		return nil, seq, err
	}
	res, err := det.Fit(window)
	if err != nil {
		return nil, seq, err
	}
	m, err := res.Model()
	if err != nil {
		return nil, seq, err
	}
	return m, seq, nil
}
