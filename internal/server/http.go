package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/pipeline"
)

// SubmitResponse is the wire reply to a submission.
type SubmitResponse struct {
	ID      string `json:"id"`
	State   string `json:"state"`
	Deduped bool   `json:"deduped"`
}

// errorResponse is the wire form of every non-2xx reply.
type errorResponse struct {
	Error string `json:"error"`
}

// StatsResponse reports the server's observational state: store
// traffic (disk hits = shards served from committed artifacts) and
// the metrics registry (dedup joins, admissions, rejections).
type StatsResponse struct {
	Store    pipeline.StoreStats `json:"store"`
	Counters map[string]int64    `json:"counters,omitempty"`
}

// Handler returns the server's HTTP API:
//
//	POST   /v1/jobs             submit a campaign (202; 200 on dedup
//	                            of a completed job; 429 + Retry-After
//	                            under backpressure)
//	GET    /v1/jobs             list jobs in admission order
//	GET    /v1/jobs/{id}        job status
//	GET    /v1/jobs/{id}/result canonical result document (409 until done)
//	GET    /v1/jobs/{id}/events SSE progress stream until terminal
//	DELETE /v1/jobs/{id}        cancel
//	GET    /v1/stats            store + metrics counters
//	GET    /v1/healthz          liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// maxSubmitBytes bounds a submission body. A JobSpec is a few hundred
// bytes; anything near the cap is hostile or corrupt, and an unbounded
// decode would let one slow client pin a handler goroutine.
const maxSubmitBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes)).Decode(&spec); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body over %d bytes", mbe.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	j, deduped, err := s.Submit(spec)
	if err != nil {
		var rej *RejectError
		if errors.As(err, &rej) {
			w.Header().Set("Retry-After", strconv.Itoa(rej.RetryAfterSeconds))
			writeError(w, http.StatusTooManyRequests, "%s", rej.Reason)
			return
		}
		if errors.Is(err, ErrClosed) {
			writeError(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	code := http.StatusAccepted
	if deduped && j.State() == StateDone {
		code = http.StatusOK
	}
	writeJSON(w, code, SubmitResponse{ID: j.ID, State: j.State(), Deduped: deduped})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Jobs())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	res := j.Result()
	if j.State() != StateDone || res == nil {
		writeError(w, http.StatusConflict, "job %s is %s; result available once done", j.ID, j.State())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(EncodeResult(res))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	snap := s.ob.Reg.Snapshot()
	writeJSON(w, http.StatusOK, StatsResponse{Store: s.pipe.Stats(), Counters: snap.Counters})
}

// eventsInterval paces SSE progress frames between state changes.
const eventsInterval = 200 * time.Millisecond

// handleEvents streams job progress as server-sent events: one
// "progress" frame per tick (a JobStatus JSON document), then a final
// "done" frame when the job reaches a terminal state. The stream also
// ends when the client disconnects or the job is resubmitted (its
// done channel is replaced; the client re-watches).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	emit := func(event string, st JobStatus) {
		data, _ := json.Marshal(st)
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
		fl.Flush()
	}
	done := j.Done()
	ticker := time.NewTicker(eventsInterval)
	defer ticker.Stop()
	emit("progress", j.Status())
	for {
		select {
		case <-done:
			emit("done", j.Status())
			return
		case <-r.Context().Done():
			return
		case <-ticker.C:
			emit("progress", j.Status())
		}
	}
}
