package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro/internal/service/jobspec"
)

// maxBodyBytes bounds request bodies: a job spec is a small JSON
// document, so anything bigger is a client error.
const maxBodyBytes = 1 << 20

// Handler returns the service's REST API:
//
//	POST   /jobs                    submit a jobspec.Spec          → 201 {"id": ...}
//	GET    /jobs                    list job statuses
//	GET    /jobs/{id}               one job's status
//	GET    /jobs/{id}/events        stream progress events (NDJSON, ?since=N)
//	GET    /jobs/{id}/artifacts/{n} fetch the job's n-th artifact (0-based)
//	DELETE /jobs/{id}               cancel (checkpointing progress) → 202
//	GET    /artifacts               list repro-bundle keys
//	GET    /artifacts/{key}         fetch a repro bundle by content key
//	GET    /healthz                 liveness + job counts
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleJobs)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /jobs/{id}/artifacts/{n}", s.handleJobArtifact)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /artifacts", s.handleArtifacts)
	mux.HandleFunc("GET /artifacts/{key}", s.handleArtifact)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// writeJSON writes v as a JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, `{"error":"encode"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(data, '\n'))
}

// writeError maps a service error to its HTTP status.
func writeError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrUnknownJob):
		code = http.StatusNotFound
	case errors.Is(err, ErrTerminal):
		code = http.StatusConflict
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrStopping):
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "read body: " + err.Error()})
		return
	}
	spec, err := jobspec.Parse(body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	id, err := s.Submit(spec)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"id": id, "state": StateQueued})
}

func (s *Service) handleJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.Jobs()})
}

func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	st, err := s.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	if err := s.Cancel(r.PathValue("id")); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"id": r.PathValue("id"), "state": "cancelling"})
}

// handleEvents streams a job's events as NDJSON: one Event per line,
// flushed as they happen, starting after ?since=N (default 0 = from
// the beginning of the retained window). The stream ends when the job
// is terminal and fully delivered, the client disconnects, or the
// server shuts down.
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	log, err := s.Events(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	since := int64(0)
	if q := r.URL.Query().Get("since"); q != "" {
		n, err := strconv.ParseInt(q, 10, 64)
		if err != nil || n < 0 {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("bad since %q", q)})
			return
		}
		since = n
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for {
		evs, wake, done := log.after(since)
		for _, e := range evs {
			if err := enc.Encode(e); err != nil {
				return
			}
			since = e.Seq
		}
		if flusher != nil {
			flusher.Flush()
		}
		if done {
			return
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		case <-s.shutdown:
			return
		}
	}
}

// handleJobArtifact resolves a job's n-th artifact key (the order the
// job produced them: violation bundles for check/soak jobs; SARIF log
// then bounds report for lint jobs) and serves the stored content —
// addressing by position spares clients a status fetch when the layout
// is fixed, as it is for lint jobs.
func (s *Service) handleJobArtifact(w http.ResponseWriter, r *http.Request) {
	st, err := s.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	n, err := strconv.Atoi(r.PathValue("n"))
	if err != nil || n < 0 {
		writeJSON(w, http.StatusBadRequest, map[string]string{
			"error": fmt.Sprintf("bad artifact index %q", r.PathValue("n"))})
		return
	}
	if n >= len(st.Artifacts) {
		writeJSON(w, http.StatusNotFound, map[string]string{
			"error": fmt.Sprintf("job %s has %d artifacts", st.ID, len(st.Artifacts))})
		return
	}
	data, err := s.st.Artifact(st.Artifacts[n])
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	if data == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{
			"error": "artifact " + st.Artifacts[n] + " missing from store"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

func (s *Service) handleArtifacts(w http.ResponseWriter, r *http.Request) {
	keys, err := s.st.ArtifactKeys()
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"artifacts": keys})
}

func (s *Service) handleArtifact(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	data, err := s.st.Artifact(key)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	if data == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown artifact " + key})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	queued := len(s.queue)
	total := len(s.jobs)
	stopping := s.stopping
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"ok": !stopping, "jobs": total, "queued": queued,
	})
}
