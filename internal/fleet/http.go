package fleet

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"rfly/internal/capture"
	"rfly/internal/obs"
	"rfly/internal/runtime"
)

// HTTP/JSON front end. cmd/rfly-serve mounts this handler; it lives in
// the package so the API tests (and the mission benchmark's in-process
// stack) exercise exactly the bytes the daemon serves.
//
//	POST   /v1/missions                 submit (202, or 429 + Retry-After, or 503 draining)
//	GET    /v1/missions/{id}            poll a mission record (includes a live
//	                                    "estimate" block while a SAR mission flies)
//	GET    /v1/missions/{id}/trace      flight-recorder span dump for the batch
//	                                    sortie that served the mission
//	GET    /v1/missions/{id}/checkpoint latest committed sortie-boundary
//	                                    checkpoint (the replication source)
//	GET    /v1/missions/{id}/capture    latest committed capture log
//	                                    (?after=N returns only the segment
//	                                    tail past sortie N — the federation
//	                                    tier's incremental replication feed)
//	POST   /v1/missions/{id}/replay     re-solve the mission from its capture
//	                                    log under caller-chosen grid /
//	                                    robustness settings (milliseconds; no
//	                                    engine, no sim)
//	DELETE /v1/missions/{id}            cancel
//	PUT    /v1/replicas/{id}            hold a peer mission's checkpoint
//	GET    /v1/replicas/{id}            fetch a held replica
//	DELETE /v1/replicas/{id}            discard a held replica
//	PUT    /v1/capture-replicas/{id}    hold (or extend, segment-append) a
//	                                    peer mission's capture log
//	GET    /v1/capture-replicas/{id}    fetch a held capture replica
//	DELETE /v1/capture-replicas/{id}    discard a held capture replica
//	GET    /healthz                     liveness + drain state
//	GET    /metrics                     counter snapshot (queue depth, shard
//	                                    utilization, batch + latency histograms,
//	                                    plus the process-wide obs registry)

// SubmitRequest is the POST /v1/missions body.
type SubmitRequest struct {
	Region    string     `json:"region"`
	ChannelHz float64    `json:"channel_hz,omitempty"`
	Tags      []TagInput `json:"tags"`
	Priority  int        `json:"priority,omitempty"`
	Seed      uint64     `json:"seed,omitempty"`
	// DeadlineMs is a relative deadline for the whole request; it maps
	// onto the mission context's deadline.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
	SARPoints  int   `json:"sar_points,omitempty"`
	// Exclusive keeps the mission out of batch coalescing — the
	// federation tier sets it so per-mission checkpoints stay
	// relocatable (see Request.Exclusive).
	Exclusive bool `json:"exclusive,omitempty"`
	// ResumeB64 is a base64 sortie-boundary checkpoint to restore from
	// (the failover path); it requires an explicit seed and implies
	// exclusive.
	ResumeB64 string `json:"resume_b64,omitempty"`
}

// TagInput places one inventory target in region coordinates.
type TagInput struct {
	ID uint16  `json:"id"`
	X  float64 `json:"x"`
	Y  float64 `json:"y"`
	Z  float64 `json:"z"`
}

// SubmitResponse is the 202 body.
type SubmitResponse struct {
	ID     string `json:"id"`
	Status Status `json:"status"`
}

// ErrorResponse is every non-2xx JSON body.
type ErrorResponse struct {
	Error string `json:"error"`
	// RetryAfterS accompanies 429s (the Retry-After header carries the
	// same value).
	RetryAfterS int64 `json:"retry_after_s,omitempty"`
}

// MissionResponse is the GET body.
type MissionResponse struct {
	ID        string   `json:"id"`
	Region    string   `json:"region"`
	Status    Status   `json:"status"`
	Error     string   `json:"error,omitempty"`
	BatchSize int      `json:"batch_size,omitempty"`
	Shard     *int     `json:"shard,omitempty"`
	WaitMs    float64  `json:"wait_ms,omitempty"`
	RunMs     float64  `json:"run_ms,omitempty"`
	Outcome   *Outcome `json:"outcome,omitempty"`
	// Estimate is the streaming accumulator's latest mid-flight
	// localization of the batch's lead tag, refreshed at every committed
	// sortie boundary. Present once enough aperture has accumulated;
	// after completion it matches the outcome's final solve.
	Estimate *EstimateBlock `json:"estimate,omitempty"`
}

// EstimateBlock is the live-estimate section of a mission record.
type EstimateBlock struct {
	Sorties int     `json:"sorties"`
	X       float64 `json:"x"`
	Y       float64 `json:"y"`
	SigmaX  float64 `json:"sigma_x"`
	SigmaY  float64 `json:"sigma_y"`
	// Total/Kept account the aperture: captures integrated vs captures
	// surviving robust lock rejection.
	Total int `json:"total"`
	Kept  int `json:"kept"`
}

// TraceResponse is the GET /v1/missions/{id}/trace body.
type TraceResponse struct {
	ID     string           `json:"id"`
	Status Status           `json:"status"`
	Spans  []obs.SpanRecord `json:"spans"`
}

// MetricsResponse is the GET /metrics body: the scheduler snapshot plus
// the process-wide obs registry (relay/reader counters bumped by the
// instrumented hot paths).
type MetricsResponse struct {
	Snapshot
	Obs obs.RegistrySnapshot `json:"obs"`
}

// NewHandler wraps the scheduler in the service's HTTP API.
func NewHandler(s *Scheduler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/missions", func(w http.ResponseWriter, r *http.Request) {
		handleSubmit(s, w, r)
	})
	mux.HandleFunc("GET /v1/missions/{id}", func(w http.ResponseWriter, r *http.Request) {
		handleGet(s, w, r)
	})
	mux.HandleFunc("GET /v1/missions/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		handleTrace(s, w, r)
	})
	mux.HandleFunc("GET /v1/missions/{id}/checkpoint", func(w http.ResponseWriter, r *http.Request) {
		handleCheckpoint(s, w, r)
	})
	mux.HandleFunc("GET /v1/missions/{id}/capture", func(w http.ResponseWriter, r *http.Request) {
		handleCapture(s, w, r)
	})
	mux.HandleFunc("POST /v1/missions/{id}/replay", func(w http.ResponseWriter, r *http.Request) {
		handleReplay(s, w, r)
	})
	mux.HandleFunc("DELETE /v1/missions/{id}", func(w http.ResponseWriter, r *http.Request) {
		handleCancel(s, w, r)
	})
	mux.HandleFunc("PUT /v1/capture-replicas/{id}", func(w http.ResponseWriter, r *http.Request) {
		handleCaptureReplicaPut(s, w, r)
	})
	mux.HandleFunc("GET /v1/capture-replicas/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		sortie, data, ok := s.GetCaptureReplica(id)
		if !ok {
			writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "no capture replica held for that id"})
			return
		}
		writeJSON(w, http.StatusOK, CaptureResponse{
			ID: id, Sortie: sortie, CaptureB64: base64.StdEncoding.EncodeToString(data),
		})
	})
	mux.HandleFunc("DELETE /v1/capture-replicas/{id}", func(w http.ResponseWriter, r *http.Request) {
		if !s.DropCaptureReplica(r.PathValue("id")) {
			writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "no capture replica held for that id"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"dropped": true})
	})
	mux.HandleFunc("PUT /v1/replicas/{id}", func(w http.ResponseWriter, r *http.Request) {
		handleReplicaPut(s, w, r)
	})
	mux.HandleFunc("GET /v1/replicas/{id}", func(w http.ResponseWriter, r *http.Request) {
		handleReplicaGet(s, w, r)
	})
	mux.HandleFunc("DELETE /v1/replicas/{id}", func(w http.ResponseWriter, r *http.Request) {
		if !s.DropReplica(r.PathValue("id")) {
			writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "no replica held for that id"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"dropped": true})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "shards": s.Config().Shards})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, MetricsResponse{
			Snapshot: s.Metrics().Snapshot(),
			Obs:      obs.Default().Snapshot(),
		})
	})
	return mux
}

func handleSubmit(s *Scheduler, w http.ResponseWriter, r *http.Request) {
	var in SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&in); err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	req := Request{
		Region:    in.Region,
		ChannelHz: in.ChannelHz,
		Priority:  in.Priority,
		Seed:      in.Seed,
		SARPoints: in.SARPoints,
		Exclusive: in.Exclusive,
	}
	if in.ResumeB64 != "" {
		blob, err := base64.StdEncoding.DecodeString(in.ResumeB64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "bad resume_b64: " + err.Error()})
			return
		}
		req.Resume = blob
	}
	for _, t := range in.Tags {
		req.Tags = append(req.Tags, runtime.TagSpec{ID: t.ID, X: t.X, Y: t.Y, Z: t.Z})
	}
	if in.DeadlineMs < 0 {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "deadline_ms must be non-negative"})
		return
	}
	if in.DeadlineMs > 0 {
		req.Deadline = time.Now().Add(time.Duration(in.DeadlineMs) * time.Millisecond)
	}

	id, err := s.Submit(req)
	var backlog ErrBacklog
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, SubmitResponse{ID: id, Status: StatusQueued})
	case errors.As(err, &backlog):
		secs := int64(backlog.RetryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		writeJSON(w, http.StatusTooManyRequests, ErrorResponse{Error: err.Error(), RetryAfterS: secs})
	case errors.As(err, &ErrDraining{}):
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: err.Error()})
	default:
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
	}
}

func handleGet(s *Scheduler, w http.ResponseWriter, r *http.Request) {
	v, ok := s.Get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "unknown mission id"})
		return
	}
	writeJSON(w, http.StatusOK, viewResponse(v))
}

func handleTrace(s *Scheduler, w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	v, ok := s.Get(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "unknown mission id"})
		return
	}
	spans, ok := s.Trace(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "mission has no trace yet (not flown)"})
		return
	}
	writeJSON(w, http.StatusOK, TraceResponse{ID: id, Status: v.Status, Spans: spans})
}

// CheckpointResponse is the GET /v1/missions/{id}/checkpoint body.
type CheckpointResponse struct {
	ID string `json:"id"`
	// Sortie is how many sorties the checkpoint covers.
	Sortie        int    `json:"sortie"`
	CheckpointB64 string `json:"checkpoint_b64"`
}

// ReplicaPut is the PUT /v1/replicas/{id} body.
type ReplicaPut struct {
	Sortie        int    `json:"sortie"`
	CheckpointB64 string `json:"checkpoint_b64"`
}

func handleCheckpoint(s *Scheduler, w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.Get(id); !ok {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "unknown mission id"})
		return
	}
	data, sortie, ok := s.Checkpoint(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "mission has no committed checkpoint yet"})
		return
	}
	writeJSON(w, http.StatusOK, CheckpointResponse{
		ID: id, Sortie: sortie, CheckpointB64: base64.StdEncoding.EncodeToString(data),
	})
}

func handleReplicaPut(s *Scheduler, w http.ResponseWriter, r *http.Request) {
	var in ReplicaPut
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&in); err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	blob, err := base64.StdEncoding.DecodeString(in.CheckpointB64)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "bad checkpoint_b64: " + err.Error()})
		return
	}
	if err := s.PutReplica(r.PathValue("id"), in.Sortie, blob); err != nil {
		writeJSON(w, http.StatusConflict, ErrorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"held": true, "sortie": in.Sortie})
}

// CaptureResponse is the GET /v1/missions/{id}/capture body (and the
// capture-replica GET body). A tail request (?after=N) that finds the
// peer already current returns sortie == N and an empty capture_b64.
type CaptureResponse struct {
	ID string `json:"id"`
	// Sortie is how many sorties the capture log covers.
	Sortie     int    `json:"sortie"`
	CaptureB64 string `json:"capture_b64"`
	// Tail marks a ?after=N response: capture_b64 holds only the
	// header-less segment bytes past sortie N, not a standalone log.
	Tail bool `json:"tail,omitempty"`
}

// ReplayRequest is the POST /v1/missions/{id}/replay body. Zero-valued
// fields keep the live solve's settings; robust defaults to true (the
// live solver) and must be set to false explicitly to integrate
// unlocked captures.
type ReplayRequest struct {
	Grid    float64 `json:"grid,omitempty"`
	Fine    float64 `json:"fine,omitempty"`
	Workers int     `json:"workers,omitempty"`
	Robust  *bool   `json:"robust,omitempty"`
}

// ReplayResponse is the replay solve's result.
type ReplayResponse struct {
	ID       string  `json:"id"`
	Sortie   int     `json:"sortie"`
	X        float64 `json:"x"`
	Y        float64 `json:"y"`
	Peak     float64 `json:"peak"`
	SigmaX   float64 `json:"sigma_x"`
	SigmaY   float64 `json:"sigma_y"`
	Total    int     `json:"total"`
	Kept     int     `json:"kept"`
	Segments int     `json:"segments"`
	Records  uint64  `json:"records"`
}

// CaptureReplicaPut is the PUT /v1/capture-replicas/{id} body. After is
// the sortie the receiver is expected to hold already: zero installs
// capture_b64 as a complete log; non-zero appends it (raw segment tail
// bytes) to a replica at exactly that sortie, and mismatch is a 409 —
// the sender's cue to fall back to a full sync.
type CaptureReplicaPut struct {
	After      int    `json:"after,omitempty"`
	Sortie     int    `json:"sortie"`
	CaptureB64 string `json:"capture_b64"`
}

func handleCapture(s *Scheduler, w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.Get(id); !ok {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "unknown mission id"})
		return
	}
	if q := r.URL.Query().Get("after"); q != "" {
		after, err := strconv.Atoi(q)
		if err != nil || after < 0 {
			writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "after must be a non-negative integer"})
			return
		}
		tail, sortie, ok := s.CaptureTail(id, after)
		if !ok {
			writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "mission has no committed capture log yet"})
			return
		}
		writeJSON(w, http.StatusOK, CaptureResponse{
			ID: id, Sortie: sortie, CaptureB64: base64.StdEncoding.EncodeToString(tail), Tail: true,
		})
		return
	}
	data, sortie, ok := s.Capture(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "mission has no committed capture log yet"})
		return
	}
	writeJSON(w, http.StatusOK, CaptureResponse{
		ID: id, Sortie: sortie, CaptureB64: base64.StdEncoding.EncodeToString(data),
	})
}

func handleReplay(s *Scheduler, w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.Get(id); !ok {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "unknown mission id"})
		return
	}
	var in ReplayRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&in); err != nil && !errors.Is(err, io.EOF) {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	data, sortie, ok := s.Capture(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "mission has no committed capture log yet"})
		return
	}
	opts := capture.LiveOptions()
	opts.CoarseRes = in.Grid
	opts.FineRes = in.Fine
	opts.Workers = in.Workers
	if in.Robust != nil {
		opts.Robust = *in.Robust
	}
	res, err := capture.Replay(r.Context(), data, opts)
	if err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, ErrorResponse{Error: err.Error()})
		return
	}
	s.m.replays.Add(1)
	writeJSON(w, http.StatusOK, ReplayResponse{
		ID:       id,
		Sortie:   sortie,
		X:        res.Location.X,
		Y:        res.Location.Y,
		Peak:     res.Peak,
		SigmaX:   res.SigmaX,
		SigmaY:   res.SigmaY,
		Total:    res.Total,
		Kept:     res.Kept,
		Segments: res.Segments,
		Records:  res.Records,
	})
}

func handleCaptureReplicaPut(s *Scheduler, w http.ResponseWriter, r *http.Request) {
	var in CaptureReplicaPut
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&in); err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	blob, err := base64.StdEncoding.DecodeString(in.CaptureB64)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "bad capture_b64: " + err.Error()})
		return
	}
	if err := s.PutCaptureReplica(r.PathValue("id"), in.After, in.Sortie, blob); err != nil {
		writeJSON(w, http.StatusConflict, ErrorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"held": true, "sortie": in.Sortie})
}

func handleReplicaGet(s *Scheduler, w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sortie, data, ok := s.GetReplica(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "no replica held for that id"})
		return
	}
	writeJSON(w, http.StatusOK, CheckpointResponse{
		ID: id, Sortie: sortie, CheckpointB64: base64.StdEncoding.EncodeToString(data),
	})
}

func handleCancel(s *Scheduler, w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.Get(id); !ok {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "unknown mission id"})
		return
	}
	if !s.Cancel(id) {
		v, _ := s.Get(id)
		writeJSON(w, http.StatusConflict, viewResponse(v))
		return
	}
	v, _ := s.Get(id)
	writeJSON(w, http.StatusOK, viewResponse(v))
}

func viewResponse(v View) MissionResponse {
	out := MissionResponse{
		ID:        v.ID,
		Region:    v.Region,
		Status:    v.Status,
		Error:     v.Err,
		BatchSize: v.BatchSize,
		Outcome:   v.Outcome,
	}
	if v.Shard >= 0 {
		sh := v.Shard
		out.Shard = &sh
	}
	if v.Estimate != nil {
		out.Estimate = &EstimateBlock{
			Sorties: v.Estimate.SortiesDone,
			X:       v.Estimate.X,
			Y:       v.Estimate.Y,
			SigmaX:  v.Estimate.SigmaX,
			SigmaY:  v.Estimate.SigmaY,
			Total:   v.Estimate.Total,
			Kept:    v.Estimate.Kept,
		}
	}
	if !v.Started.IsZero() {
		out.WaitMs = float64(v.Started.Sub(v.Submitted)) / float64(time.Millisecond)
		end := v.Finished
		if end.IsZero() {
			end = time.Now()
		}
		out.RunMs = float64(end.Sub(v.Started)) / float64(time.Millisecond)
	}
	return out
}

// WithRequestTimeout bounds every request's context: a handler stuck
// behind a slow scheduler (or a client that stops reading) is cut off
// after d instead of pinning its goroutine. Mission deadlines are
// separate — this is the HTTP tier's own guard, so d should comfortably
// exceed the poll/submit path's worst case (those handlers only touch
// in-memory state; the missions themselves fly asynchronously).
func WithRequestTimeout(h http.Handler, d time.Duration) http.Handler {
	if d <= 0 {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		h.ServeHTTP(w, r.WithContext(ctx))
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// Headers are gone; nothing useful left to do but note it.
		fmt.Fprintf(w, `{"error":%q}`, err.Error())
	}
}
