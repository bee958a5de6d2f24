package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"
)

// ServerConfig configures the query-path HTTP server.
type ServerConfig struct {
	// Store is the snapshot source. Required.
	Store *Store
	// Metrics receives the serving counters. Required (the daemon
	// always has one; tests may share it with the trainer).
	Metrics *Metrics
	// Trainer, when set, feeds the ingest endpoint and the degradation
	// flag; optional.
	Trainer *Trainer
	// Chaos injects shard straggling, degraded-link latency and
	// transient request faults; optional.
	Chaos *Chaos
	// QueueDepth bounds concurrent admitted assignment requests; the
	// excess is shed with 429 (default 64).
	QueueDepth int
	// DefaultDeadline caps a request's processing time when the client
	// does not send its own deadline_ms (default 250ms).
	DefaultDeadline time.Duration
	// MaxPoints bounds the points accepted in one assignment request
	// (default 512).
	MaxPoints int
	// Start anchors uptime reporting (default: construction time).
	Start time.Time
}

// Server is the HTTP query path: sharded nearest-centroid assignment
// over the live snapshot, with bounded admission, per-request
// deadlines, per-connection panic recovery, health/readiness and a
// graceful drain. Use Handler to mount it and Drain to stop admitting.
type Server struct {
	cfg      ServerConfig
	slots    chan struct{}
	draining atomic.Bool
	seq      atomic.Uint64
	mux      *http.ServeMux
}

// NewServer validates the configuration and builds the handler.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("serve: server needs a store")
	}
	if cfg.Metrics == nil {
		return nil, fmt.Errorf("serve: server needs metrics")
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 64
	}
	if cfg.QueueDepth < 1 {
		return nil, fmt.Errorf("serve: queue depth must be positive, got %d", cfg.QueueDepth)
	}
	if cfg.DefaultDeadline == 0 {
		cfg.DefaultDeadline = 250 * time.Millisecond
	}
	if cfg.MaxPoints == 0 {
		cfg.MaxPoints = 512
	}
	if cfg.Start.IsZero() {
		cfg.Start = time.Now()
	}
	s := &Server{cfg: cfg, slots: make(chan struct{}, cfg.QueueDepth)}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/assign", s.handleAssign)
	mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux = mux
	return s, nil
}

// Handler returns the mounted routes wrapped in panic recovery.
func (s *Server) Handler() http.Handler { return s.recoverWrap(s.mux) }

// Drain stops admitting new work: readiness flips to 503 and every
// data-path request is refused as draining while in-flight requests
// finish. It is the first step of graceful shutdown.
func (s *Server) Drain() { s.draining.Store(true) }

// recoverWrap absorbs handler panics per connection: the panicking
// request gets an explicit 500 and the daemon keeps serving.
func (s *Server) recoverWrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.cfg.Metrics.Panics.Add(1)
				writeJSON(w, http.StatusInternalServerError, errorBody{
					Error:  "internal",
					Reason: fmt.Sprintf("handler panic: %v", rec),
				})
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// errorBody is the JSON shape of every non-200 response.
type errorBody struct {
	Error  string `json:"error"`
	Reason string `json:"reason"`
	// RetryAfterMS hints the client backoff for shed responses.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// assignRequest is the query payload.
type assignRequest struct {
	// Points are the samples to assign, each of the model's d.
	Points [][]float64 `json:"points"`
	// DeadlineMS, when positive, overrides the server's default
	// per-request deadline.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// assignResponse is the answer payload.
type assignResponse struct {
	// Epoch identifies the snapshot that answered; it is monotonic
	// across the sequential requests of one client.
	Epoch uint64 `json:"epoch"`
	// StalenessMS is the snapshot age at answer time — the degradation
	// contract's visibility guarantee.
	StalenessMS int64 `json:"staleness_ms"`
	// Degraded is set while the trainer is dead or the snapshot is past
	// its staleness budget.
	Degraded bool `json:"degraded"`
	// Assignments and Distances hold the per-point nearest centroid and
	// squared distance.
	Assignments []int     `json:"assignments"`
	Distances   []float64 `json:"distances"`
}

// ingestRequest feeds samples to the trainer.
type ingestRequest struct {
	Points [][]float64 `json:"points"`
}

// Request bodies are bounded before they are decoded: a body longer
// than the bound is answered 413 as soon as the decoder reads past it.
// A number takes at most jsonNumberBytes characters with its separator
// and some whitespace, a point jsonPointBytes more for its brackets,
// and the envelope jsonEnvelopeBytes.
const (
	jsonNumberBytes   = 32
	jsonPointBytes    = 8
	jsonEnvelopeBytes = 256
)

// bodyLimit is the largest request body accepted for points rows of d
// values each.
func bodyLimit(points, d int) int64 {
	return jsonEnvelopeBytes + int64(points)*(jsonPointBytes+int64(d)*jsonNumberBytes)
}

// decodeBody decodes a request body of at most limit bytes into v. It
// writes the 413 or 400 answer itself and reports whether v is usable.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooLarge):
		s.cfg.Metrics.TooLarge.Add(1)
		writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{
			Error: "too_large", Reason: fmt.Sprintf("request body exceeds %d bytes", limit),
		})
	default:
		s.cfg.Metrics.BadRequest.Add(1)
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad_request", Reason: fmt.Sprintf("decoding body: %v", err)})
	}
	return false
}

// handleAssign is the query path. Outcomes are exactly the degradation
// contract of docs/SERVING.md: 200 answered, 429 shed at admission,
// 503 not ready/draining, 504 deadline, 400 malformed, 413 too large.
func (s *Server) handleAssign(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	if s.draining.Load() {
		s.cfg.Metrics.NotReady.Add(1)
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "unavailable", Reason: "draining"})
		return
	}
	// Bounded admission: a full queue sheds immediately and explicitly
	// instead of queueing into collapse.
	select {
	case s.slots <- struct{}{}:
		defer func() { <-s.slots }()
	default:
		s.cfg.Metrics.Shed.Add(1)
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, errorBody{
			Error: "shed", Reason: "admission queue full", RetryAfterMS: 25,
		})
		return
	}
	snap := s.cfg.Store.Current()
	if snap == nil {
		s.cfg.Metrics.NotReady.Add(1)
		writeJSON(w, http.StatusServiceUnavailable, errorBody{
			Error: "unavailable", Reason: "no model published yet", RetryAfterMS: 100,
		})
		return
	}
	var req assignRequest
	if !s.decodeBody(w, r, bodyLimit(s.cfg.MaxPoints, snap.D), &req) {
		return
	}
	if len(req.Points) == 0 || len(req.Points) > s.cfg.MaxPoints {
		s.cfg.Metrics.BadRequest.Add(1)
		writeJSON(w, http.StatusBadRequest, errorBody{
			Error: "bad_request", Reason: fmt.Sprintf("want 1..%d points, got %d", s.cfg.MaxPoints, len(req.Points)),
		})
		return
	}
	deadline := s.cfg.DefaultDeadline
	if req.DeadlineMS > 0 {
		deadline = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	ctx, cancel := context.WithDeadline(r.Context(), t0.Add(deadline))
	defer cancel()

	// Chaos: a degraded fabric delays the whole request, a transient
	// processing fault costs one absorbed retry.
	if err := sleepCtx(ctx, s.cfg.Chaos.LinkDelay()); err != nil {
		s.deadlineOut(w)
		return
	}
	if s.cfg.Chaos.RequestFault(s.seq.Add(1)) {
		s.cfg.Metrics.TransientRetries.Add(1)
		if err := sleepCtx(ctx, time.Millisecond); err != nil {
			s.deadlineOut(w)
			return
		}
	}

	resp := assignResponse{
		Epoch:       snap.Epoch,
		Assignments: make([]int, len(req.Points)),
		Distances:   make([]float64, len(req.Points)),
	}
	for i, x := range req.Points {
		best, dist, err := snap.Assign(x, func(shard int) error {
			if err := sleepCtx(ctx, s.cfg.Chaos.ShardDelay(shard)); err != nil {
				return err
			}
			return ctx.Err()
		})
		switch {
		case err == nil:
		case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
			s.deadlineOut(w)
			return
		default:
			s.cfg.Metrics.BadRequest.Add(1)
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad_request", Reason: err.Error()})
			return
		}
		resp.Assignments[i] = best
		resp.Distances[i] = dist
	}
	resp.StalenessMS = snap.Staleness().Milliseconds()
	if s.cfg.Trainer != nil {
		resp.Degraded = s.cfg.Trainer.Degraded()
	}
	s.cfg.Metrics.Served.Add(1)
	s.cfg.Metrics.Points.Add(uint64(len(req.Points)))
	s.cfg.Metrics.ObserveLatency(time.Since(t0))
	writeJSON(w, http.StatusOK, resp)
}

// deadlineOut emits the 504 of a request that ran out of budget — a
// clean shed under the contract, never a hang.
func (s *Server) deadlineOut(w http.ResponseWriter) {
	s.cfg.Metrics.Deadline.Add(1)
	writeJSON(w, http.StatusGatewayTimeout, errorBody{
		Error: "deadline", Reason: "request deadline exceeded", RetryAfterMS: 50,
	})
}

// handleIngest feeds samples into the trainer's bounded buffer,
// shedding the overflow with 429. A body is bounded by what the buffer
// can hold at most.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.cfg.Metrics.NotReady.Add(1)
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "unavailable", Reason: "draining"})
		return
	}
	if s.cfg.Trainer == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no_trainer", Reason: "this server has no trainer attached"})
		return
	}
	var req ingestRequest
	tc := s.cfg.Trainer.cfg
	if !s.decodeBody(w, r, bodyLimit(4*tc.BatchSamples, tc.Source.D()), &req) {
		return
	}
	accepted, err := s.cfg.Trainer.Ingest(req.Points)
	if err != nil {
		if errors.Is(err, ErrIngestFull) {
			s.cfg.Metrics.Shed.Add(1)
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusTooManyRequests, errorBody{
				Error: "shed", Reason: fmt.Sprintf("accepted %d: %v", accepted, err), RetryAfterMS: 100,
			})
			return
		}
		s.cfg.Metrics.BadRequest.Add(1)
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad_request", Reason: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"accepted": accepted})
}

// handleStats reports the metrics snapshot (whole-run mean QPS).
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	snap := s.cfg.Metrics.Snap(s.cfg.Store, s.cfg.Trainer, s.cfg.Start, 0, time.Time{})
	writeJSON(w, http.StatusOK, snap)
}

// handleHealthz is liveness: the process is up.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":        true,
		"uptime_ms": time.Since(s.cfg.Start).Milliseconds(),
	})
}

// handleReadyz is readiness: a model is live and the server is not
// draining. The trainer may be dead — degraded serving is still ready.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "unavailable", Reason: "draining"})
		return
	}
	snap := s.cfg.Store.Current()
	if snap == nil {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "unavailable", Reason: "no model published yet"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":           true,
		"epoch":        snap.Epoch,
		"staleness_ms": snap.Staleness().Milliseconds(),
	})
}

// writeJSON emits one JSON body with status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// sleepCtx sleeps d unless the context ends first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
