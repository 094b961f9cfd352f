package coord

import (
	"errors"
	"net/http"
	"time"

	"lof/internal/client"
	"lof/internal/front"
	"lof/internal/server"
	"lof/internal/trace"
)

// The coordinator's HTTP surface speaks the same JSON protocol as the
// single-node lofserve API — same request bodies, same response shapes,
// same error envelope, through the same front end — so internal/client
// (and anything else written against lofserve) points at a lofcoord
// unchanged. Coordinator-specific detail (shard count, snapshot version)
// rides in additive fields.

const defaultMaxBodyBytes = 1 << 30

type fitResponse struct {
	ModelInfo
	FitMS float64 `json:"fitMillis"`
}

// Handler returns the coordinator's HTTP API.
func (c *Coordinator) Handler() http.Handler { return c.front }

func (c *Coordinator) handleFit(w http.ResponseWriter, r *http.Request) {
	var req server.FitRequest
	if !front.Decode(w, r, defaultMaxBodyBytes, &req) {
		return
	}
	if len(req.Data) == 0 {
		front.WriteError(w, r, http.StatusBadRequest, "fit requires a non-empty data array")
		return
	}
	front.SetBatch(r.Context(), len(req.Data))
	start := time.Now()
	info, err := c.Fit(r.Context(), req.Config, req.Data)
	if err != nil {
		if r.Context().Err() != nil {
			return
		}
		front.WriteError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	front.WriteJSON(w, http.StatusOK, fitResponse{
		ModelInfo: info,
		FitMS:     float64(time.Since(start).Microseconds()) / 1000,
	})
}

func (c *Coordinator) handleScore(w http.ResponseWriter, r *http.Request) {
	mode, ok := front.ScoreMode(w, r)
	if !ok {
		return
	}
	var req front.ScoreRequest
	if !front.Decode(w, r, defaultMaxBodyBytes, &req) {
		return
	}
	if len(req.Queries) == 0 {
		front.WriteError(w, r, http.StatusBadRequest, "score requires a non-empty queries array")
		return
	}
	front.SetBatch(r.Context(), len(req.Queries))
	scores, servedMode, certified, err := c.Score(r.Context(), req.Queries, mode)
	if err != nil {
		if r.Context().Err() != nil {
			return
		}
		var se *shardError
		switch {
		case errors.Is(err, errNoModel):
			front.WriteError(w, r, http.StatusConflict, "no fitted model; POST /v1/fit first or start with -model")
		case client.StatusCode(err) == http.StatusRequestEntityTooLarge:
			front.WriteError(w, r, http.StatusRequestEntityTooLarge, err.Error())
		case errors.As(err, &se):
			front.WriteError(w, r, http.StatusBadGateway, err.Error())
		default:
			front.WriteError(w, r, http.StatusBadRequest, err.Error())
		}
		return
	}
	if servedMode == front.ModePruned {
		trace.SpanFrom(r.Context()).SetAttrInt("certified", int64(certified))
	}
	front.WriteJSON(w, http.StatusOK, front.ScoreResponse{Scores: front.Floats(scores), Mode: servedMode, Certified: certified})
}

func (c *Coordinator) handleModel(w http.ResponseWriter, r *http.Request) {
	info, ok := c.Info()
	if !ok {
		front.WriteError(w, r, http.StatusNotFound, "no fitted model")
		return
	}
	front.WriteJSON(w, http.StatusOK, info)
}

// handleHealthz is pure liveness, like the shard servers': the process is
// up and serving HTTP. Routing decisions belong to /readyz.
func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	_, ok := c.Info()
	front.WriteJSON(w, http.StatusOK, map[string]interface{}{"status": "ok", "model": ok})
}

func (c *Coordinator) handleReadyz(w http.ResponseWriter, r *http.Request) {
	info, ok := c.Info()
	ri := server.ReadyInfo{
		Ready:   ok,
		Version: info.Version,
		Role:    "coordinator",
		Model:   ok,
		Shards:  len(c.replicas),
		Points:  info.Objects,
	}
	status := http.StatusOK
	if !ri.Ready {
		status = http.StatusServiceUnavailable
	}
	front.WriteJSON(w, status, ri)
}
