package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"time"

	"hetpnoc"
)

// maxBodyBytes bounds request bodies; a full 64-core custom workload
// fits in a few kilobytes, so 1 MiB is generous.
const maxBodyBytes = 1 << 20

// RunResponse is the /v1/run reply.
type RunResponse struct {
	// Key is the hex content address of the simulation.
	Key string `json:"key"`
	// Cached reports the result came from the completed-run cache.
	Cached bool `json:"cached"`
	// Coalesced reports the request shared an identical in-flight run.
	Coalesced bool `json:"coalesced"`
	// Deprecated: Batched is never set; sweep points run as ordinary
	// pool jobs and report Cached or Coalesced like /v1/run.
	Batched bool           `json:"batched,omitempty"`
	Result  hetpnoc.Result `json:"result"`
}

// SweepResponse is the /v1/sweep reply; points preserve request order.
type SweepResponse struct {
	Points []RunResponse `json:"points"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the service's HTTP mux:
//
//	POST /v1/run      — execute (or fetch) one simulation
//	POST /v1/sweep    — execute a parameter sweep through the same pool
//	GET  /healthz     — liveness; 503 while draining
//	GET  /metricsz    — JSON counters
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metricsz", s.handleMetricsz)
	return mux
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	cfg, err := DecodeRunRequest(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	out, err := s.Submit(r.Context(), cfg)
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, runResponse(out))
}

func runResponse(out Outcome) RunResponse {
	return RunResponse{
		Key:       out.Key.String(),
		Cached:    out.Cached,
		Coalesced: out.Coalesced,
		Result:    out.Result,
	}
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	configs, err := DecodeSweepRequest(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	points, err := s.runSweep(r.Context(), configs)
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, SweepResponse{Points: points})
}

// runSweep executes the points through SubmitBatch and renders them in
// request order.
func (s *Server) runSweep(ctx context.Context, configs []hetpnoc.Config) ([]RunResponse, error) {
	outs, err := s.SubmitBatch(ctx, configs)
	if err != nil {
		return nil, err
	}
	points := make([]RunResponse, len(outs))
	for i, out := range outs {
		points[i] = runResponse(out)
	}
	return points, nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetricsz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}

// writeSubmitError maps Submit failures onto HTTP semantics: full queue
// → 429 + Retry-After, draining → 503, job timeout → 504, client gone →
// 499 (nginx's convention), config rejection → 400.
func (s *Server) writeSubmitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrBusy):
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.cfg.RetryAfter)))
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, err)
	case errors.Is(err, context.Canceled):
		// The client went away; the status is for logs only.
		writeError(w, 499, err)
	case errors.Is(err, ErrSimulation):
		writeError(w, http.StatusInternalServerError, err)
	default:
		writeError(w, http.StatusBadRequest, err)
	}
}

// retryAfterSeconds renders the hint in whole seconds, at least 1 (a
// Retry-After of 0 invites an immediate stampede).
func retryAfterSeconds(d time.Duration) int {
	secs := int(d / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}
