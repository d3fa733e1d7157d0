package federation

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"rfly/internal/fleet"
)

// Coordinator HTTP API, mounted by cmd/rfly-federate. It mirrors the
// node protocol where it can (same submit body, same error shape) so a
// client can talk to one node or the whole federation with the same
// code.
//
//	POST /v1/missions       submit (202; 503 + read-only while degraded;
//	                        400 for a body naming resume_replica)
//	GET  /v1/missions/{id}  poll a federated mission
//	GET  /v1/missions       list federated missions
//	GET  /v1/nodes          per-node health + load (the gossip view)
//	GET  /healthz           liveness + degradation state
//	GET  /metrics           coordinator counters
//
// NewHandler wraps the coordinator in that API.
func NewHandler(c *Coordinator) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/missions", func(w http.ResponseWriter, r *http.Request) {
		var in fleet.SubmitRequest
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, fleet.MaxBody))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&in); err != nil {
			writeJSON(w, http.StatusBadRequest, fleet.ErrorResponse{Error: "bad request body: " + err.Error()})
			return
		}
		if in.ResumeReplica != "" {
			// Only failover names a replica; a client holds none to name.
			writeJSON(w, http.StatusBadRequest, fleet.ErrorResponse{Error: "resume_replica is set only by the coordinator's failover"})
			return
		}
		id, err := c.Submit(r.Context(), in)
		var st ErrStatus
		switch {
		case err == nil:
			writeJSON(w, http.StatusAccepted, fleet.SubmitResponse{ID: id, Status: fleet.StatusQueued})
		case errors.Is(err, ErrReadOnly):
			writeJSON(w, http.StatusServiceUnavailable, fleet.ErrorResponse{Error: err.Error()})
		case errors.Is(err, ErrNoNode):
			writeJSON(w, http.StatusServiceUnavailable, fleet.ErrorResponse{Error: err.Error()})
		case errors.As(err, &st) && st.Code >= 400 && st.Code < 500 && st.Code != http.StatusTooManyRequests:
			// The node refused the request itself (bad region, no tags,
			// …): every node would, so it is the client's error, not a
			// bad gateway. Pass the node's code and message through.
			msg := st.Msg
			if msg == "" {
				msg = err.Error()
			}
			writeJSON(w, st.Code, fleet.ErrorResponse{Error: msg})
		default:
			writeJSON(w, http.StatusBadGateway, fleet.ErrorResponse{Error: err.Error()})
		}
	})
	mux.HandleFunc("GET /v1/missions/{id}", func(w http.ResponseWriter, r *http.Request) {
		v, ok := c.Get(r.PathValue("id"))
		if !ok {
			writeJSON(w, http.StatusNotFound, fleet.ErrorResponse{Error: "unknown mission id"})
			return
		}
		writeJSON(w, http.StatusOK, v)
	})
	mux.HandleFunc("GET /v1/missions", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"missions": c.List()})
	})
	mux.HandleFunc("GET /v1/nodes", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"nodes":     c.Detector().Snapshot(),
			"read_only": c.ReadOnly(),
		})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		alive, total := c.Detector().AliveCount()
		body := map[string]any{"status": "ok", "alive": alive, "nodes": total}
		code := http.StatusOK
		if c.ReadOnly() {
			body["status"] = "read-only"
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, body)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.Metrics().Snapshot())
	})
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fmt.Fprintf(w, `{"error":%q}`, err.Error())
	}
}
