package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
)

// newTestServer builds a server over a store holding one 4-centroid
// snapshot (epoch 5) and returns both.
func newTestServer(t *testing.T, mutate func(*ServerConfig)) (*Server, *Store) {
	t.Helper()
	var st Store
	cents := []float64{
		0, 0,
		10, 0,
		0, 10,
		10, 10,
	}
	if err := st.Publish(mkSnap(t, 5, cents, 4, 2, 2)); err != nil {
		t.Fatal(err)
	}
	cfg := ServerConfig{Store: &st, Metrics: &Metrics{}}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, &st
}

func postJSON(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func getPath(h http.Handler, path string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestServerConfigValidation(t *testing.T) {
	if _, err := NewServer(ServerConfig{Metrics: &Metrics{}}); err == nil {
		t.Error("server without store accepted")
	}
	if _, err := NewServer(ServerConfig{Store: &Store{}}); err == nil {
		t.Error("server without metrics accepted")
	}
	if _, err := NewServer(ServerConfig{Store: &Store{}, Metrics: &Metrics{}, QueueDepth: -1}); err == nil {
		t.Error("negative queue depth accepted")
	}
	if _, err := NewServer(ServerConfig{Store: &Store{}, Metrics: &Metrics{}, DefaultDeadline: -time.Second}); err == nil {
		t.Error("negative default deadline accepted")
	}
	if _, err := NewServer(ServerConfig{Store: &Store{}, Metrics: &Metrics{}, MaxPoints: -1}); err == nil {
		t.Error("negative max points accepted")
	}
}

func TestAssignAnswers(t *testing.T) {
	s, _ := newTestServer(t, nil)
	w := postJSON(t, s.Handler(), "/v1/assign", assignRequest{
		Points: [][]float64{{0.1, 0.1}, {9.8, 9.9}},
	})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp assignResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Epoch != 5 {
		t.Errorf("epoch %d, want 5", resp.Epoch)
	}
	if len(resp.Assignments) != 2 || resp.Assignments[0] != 0 || resp.Assignments[1] != 3 {
		t.Errorf("assignments %v, want [0 3]", resp.Assignments)
	}
	if resp.StalenessMS < 0 {
		t.Errorf("staleness %d < 0", resp.StalenessMS)
	}
	if s.cfg.Metrics.Served.Load() != 1 || s.cfg.Metrics.Points.Load() != 2 {
		t.Errorf("served/points = %d/%d", s.cfg.Metrics.Served.Load(), s.cfg.Metrics.Points.Load())
	}
}

func TestAssignBadRequests(t *testing.T) {
	s, _ := newTestServer(t, func(cfg *ServerConfig) { cfg.MaxPoints = 2 })
	h := s.Handler()
	cases := []struct {
		name string
		body string
	}{
		{"malformed json", `{"points": [[1,`},
		{"no points", `{"points": []}`},
		{"too many points", `{"points": [[1,2],[3,4],[5,6]]}`},
		{"wrong dims", `{"points": [[1,2,3]]}`},
	}
	for _, c := range cases {
		req := httptest.NewRequest(http.MethodPost, "/v1/assign", strings.NewReader(c.body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, w.Code)
		}
	}
	if got := s.cfg.Metrics.BadRequest.Load(); got != uint64(len(cases)) {
		t.Errorf("bad_request counter %d, want %d", got, len(cases))
	}
}

func TestAssignShedsWhenQueueFull(t *testing.T) {
	s, _ := newTestServer(t, func(cfg *ServerConfig) { cfg.QueueDepth = 1 })
	// Occupy the only admission slot, exactly as an in-flight request
	// would.
	s.slots <- struct{}{}
	w := postJSON(t, s.Handler(), "/v1/assign", assignRequest{Points: [][]float64{{0, 0}}})
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", w.Code, w.Body)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("shed response has no Retry-After hint")
	}
	var body errorBody
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Error != "shed" || body.RetryAfterMS <= 0 {
		t.Errorf("shed body %+v", body)
	}
	if s.cfg.Metrics.Shed.Load() != 1 {
		t.Errorf("shed counter %d, want 1", s.cfg.Metrics.Shed.Load())
	}
	// Releasing the slot restores service.
	<-s.slots
	if w := postJSON(t, s.Handler(), "/v1/assign", assignRequest{Points: [][]float64{{0, 0}}}); w.Code != http.StatusOK {
		t.Fatalf("post-shed status %d: %s", w.Code, w.Body)
	}
}

func TestAssignDeadline(t *testing.T) {
	// A degraded-fabric chaos window injects more latency than the
	// request's 1ms budget: the contract demands an explicit 504, not a
	// hang.
	s, _ := newTestServer(t, func(cfg *ServerConfig) {
		cfg.Chaos = mkChaos(t, "link=*@0:3600x200")
	})
	w := postJSON(t, s.Handler(), "/v1/assign", assignRequest{
		Points:     [][]float64{{0, 0}},
		DeadlineMS: 1,
	})
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", w.Code, w.Body)
	}
	if s.cfg.Metrics.Deadline.Load() != 1 {
		t.Errorf("deadline counter %d, want 1", s.cfg.Metrics.Deadline.Load())
	}
}

// TestAssignLongDeadline: a deadline_ms longer than a time.Duration
// holds waits the longest Duration; it does not wrap into the past.
func TestAssignLongDeadline(t *testing.T) {
	s, _ := newTestServer(t, nil)
	for _, ms := range []int64{math.MaxInt64, 9_300_000_000_000} {
		w := postJSON(t, s.Handler(), "/v1/assign", assignRequest{Points: [][]float64{{0, 0}}, DeadlineMS: ms})
		if w.Code != http.StatusOK {
			t.Errorf("deadline_ms %d: status %d, want 200: %s", ms, w.Code, w.Body)
		}
	}
}

func TestServerNotReadyBeforeFirstSnapshot(t *testing.T) {
	var st Store
	s, err := NewServer(ServerConfig{Store: &st, Metrics: &Metrics{}})
	if err != nil {
		t.Fatal(err)
	}
	if w := getPath(s.Handler(), "/readyz"); w.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz before first snapshot: %d, want 503", w.Code)
	}
	if w := postJSON(t, s.Handler(), "/v1/assign", assignRequest{Points: [][]float64{{0, 0}}}); w.Code != http.StatusServiceUnavailable {
		t.Errorf("assign before first snapshot: %d, want 503", w.Code)
	}
	// Liveness is independent of the model: the process is up.
	if w := getPath(s.Handler(), "/healthz"); w.Code != http.StatusOK {
		t.Errorf("healthz: %d, want 200", w.Code)
	}
}

func TestServerDrain(t *testing.T) {
	s, _ := newTestServer(t, nil)
	if w := getPath(s.Handler(), "/readyz"); w.Code != http.StatusOK {
		t.Fatalf("readyz before drain: %d", w.Code)
	}
	s.Drain()
	if w := getPath(s.Handler(), "/readyz"); w.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining: %d, want 503", w.Code)
	}
	if w := postJSON(t, s.Handler(), "/v1/assign", assignRequest{Points: [][]float64{{0, 0}}}); w.Code != http.StatusServiceUnavailable {
		t.Errorf("assign while draining: %d, want 503", w.Code)
	}
	if w := postJSON(t, s.Handler(), "/v1/ingest", ingestRequest{Points: [][]float64{{0, 0}}}); w.Code != http.StatusServiceUnavailable {
		t.Errorf("ingest while draining: %d, want 503", w.Code)
	}
	// Liveness stays up through the drain.
	if w := getPath(s.Handler(), "/healthz"); w.Code != http.StatusOK {
		t.Errorf("healthz while draining: %d, want 200", w.Code)
	}
}

func TestPanicRecovery(t *testing.T) {
	s, _ := newTestServer(t, nil)
	h := s.recoverWrap(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("handler bug")
	}))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/", nil))
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", w.Code)
	}
	if s.cfg.Metrics.Panics.Load() != 1 {
		t.Errorf("panic counter %d, want 1", s.cfg.Metrics.Panics.Load())
	}
	// The wrapped mux keeps serving after a panic elsewhere.
	if w := postJSON(t, s.Handler(), "/v1/assign", assignRequest{Points: [][]float64{{0, 0}}}); w.Code != http.StatusOK {
		t.Fatalf("serving broken after absorbed panic: %d", w.Code)
	}
}

func TestIngestEndpoint(t *testing.T) {
	src, err := dataset.NewGaussianMixture("serve-ingest", 64, 2, 2, 0.15, 2.0, 0xBEE)
	if err != nil {
		t.Fatal(err)
	}
	var st Store
	m := &Metrics{}
	tr, err := NewTrainer(TrainerConfig{Store: &st, Metrics: m, Source: src, K: 2, BatchSamples: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The trainer is deliberately not started: queued samples stay
	// queued, so the 4x-batch bound (8 samples) is reachable.
	if err := st.Publish(mkSnap(t, 1, []float64{0, 0, 1, 1}, 2, 2, 1)); err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(ServerConfig{Store: &st, Metrics: m, Trainer: tr})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	fill := make([][]float64, 8)
	for i := range fill {
		fill[i] = []float64{float64(i), 0}
	}
	w := postJSON(t, h, "/v1/ingest", ingestRequest{Points: fill})
	if w.Code != http.StatusOK {
		t.Fatalf("fill status %d: %s", w.Code, w.Body)
	}
	var ok map[string]int
	if err := json.Unmarshal(w.Body.Bytes(), &ok); err != nil {
		t.Fatal(err)
	}
	if ok["accepted"] != 8 {
		t.Fatalf("accepted %d, want 8", ok["accepted"])
	}
	// The buffer is full: the overflow is shed with 429, like the query
	// path.
	w = postJSON(t, h, "/v1/ingest", ingestRequest{Points: [][]float64{{9, 9}}})
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("overflow status %d, want 429: %s", w.Code, w.Body)
	}
	if m.Ingested.Load() != 8 {
		t.Errorf("ingested counter %d, want 8", m.Ingested.Load())
	}
	// Wrong dimensionality is the client's fault, not load.
	w = postJSON(t, h, "/v1/ingest", ingestRequest{Points: [][]float64{{1, 2, 3}}})
	if w.Code != http.StatusBadRequest {
		t.Errorf("wrong-dims status %d, want 400", w.Code)
	}
}

func TestIngestWithoutTrainer(t *testing.T) {
	s, _ := newTestServer(t, nil)
	w := postJSON(t, s.Handler(), "/v1/ingest", ingestRequest{Points: [][]float64{{0, 0}}})
	if w.Code != http.StatusNotFound {
		t.Errorf("status %d, want 404", w.Code)
	}
}

func TestStatsEndpoint(t *testing.T) {
	s, _ := newTestServer(t, nil)
	h := s.Handler()
	if w := postJSON(t, h, "/v1/assign", assignRequest{Points: [][]float64{{0, 0}}}); w.Code != http.StatusOK {
		t.Fatal("warm-up assign failed")
	}
	w := getPath(h, "/v1/stats")
	if w.Code != http.StatusOK {
		t.Fatalf("stats status %d", w.Code)
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Served != 1 || snap.Epoch != 5 || snap.SnapshotAgeMS < 0 {
		t.Errorf("stats %+v", snap)
	}
}

// TestBodyCap: assign and ingest bodies are bounded before they are
// decoded. A body padded to exactly its bound gets the usual answer,
// one byte more is answered 413 with the JSON error body and counted
// on /v1/stats and /metrics, and so is a body whose JSON value ends
// well inside the bound when padding after it runs past.
func TestBodyCap(t *testing.T) {
	src, err := dataset.NewGaussianMixture("serve-cap", 64, 2, 2, 0.15, 2.0, 0xCAB)
	if err != nil {
		t.Fatal(err)
	}
	s, st := newTestServer(t, func(cfg *ServerConfig) { cfg.MaxPoints = 3 })
	tr, err := NewTrainer(TrainerConfig{Store: st, Metrics: s.cfg.Metrics, Source: src, K: 2, BatchSamples: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.cfg.Trainer = tr
	h := s.Handler()
	// post sends body padded with spaces to size bytes, before the
	// value or after it.
	post := func(path string, body any, size int64, after bool) *httptest.ResponseRecorder {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		pad := bytes.Repeat([]byte(" "), int(size)-len(raw))
		if after {
			raw, pad = pad, raw
		}
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(append(pad, raw...)))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w
	}
	for _, tc := range []struct {
		path  string
		body  any
		limit int64
		ok    int
	}{
		{"/v1/assign", assignRequest{Points: [][]float64{{9, 1}}}, bodyLimit(3, 2), http.StatusOK},
		{"/v1/ingest", ingestRequest{Points: [][]float64{{1, 2}}}, bodyLimit(4*2, 2), http.StatusOK},
	} {
		for _, after := range []bool{false, true} {
			if w := post(tc.path, tc.body, tc.limit, after); w.Code != tc.ok {
				t.Errorf("%s at the bound, padded after %v: status %d, want %d: %s", tc.path, after, w.Code, tc.ok, w.Body)
			}
		}
		// One byte over, and 18 over with the value first: at d=2 and
		// MaxPoints 3 that is a 490-byte body over a 472-byte bound.
		for _, over := range []struct {
			size  int64
			after bool
		}{{tc.limit + 1, false}, {tc.limit + 18, true}} {
			w := post(tc.path, tc.body, over.size, over.after)
			var eb errorBody
			if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil || w.Code != http.StatusRequestEntityTooLarge || eb.Error != "too_large" {
				t.Errorf("%s %d bytes over, padded after %v: status %d body %s, want 413 too_large",
					tc.path, over.size-tc.limit, over.after, w.Code, w.Body)
			}
		}
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal(getPath(h, "/v1/stats").Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.TooLarge != 4 || snap.BadRequest != 0 {
		t.Errorf("stats too_large %d bad_request %d, want 4 and 0", snap.TooLarge, snap.BadRequest)
	}
	if m := getPath(h, "/metrics").Body.String(); !strings.Contains(m, "swkmeansd_too_large_total 4\n") {
		t.Errorf("/metrics lacks swkmeansd_too_large_total 4:\n%s", m)
	}
}
