package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/dataset"
)

// fuzzSeeds are request bodies both targets start from: well-formed,
// out of shape, non-finite, oversized counts, hostile deadlines and
// broken JSON.
var fuzzSeeds = []string{
	`{"points":[[1,2]]}`,
	`{"points":[[1,2],[3,4],[5,6]],"deadline_ms":-5}`,
	`{"points":[[1,2]],"deadline_ms":9223372036854775807}`,
	`{"points":[[1]]}`,
	`{"points":[[1e309,2]]}`,
	`{"points":[]}`,
	`{"points":[[1,2],[1,2],[1,2],[1,2],[1,2],[1,2],[1,2],[1,2],[1,2]]}`,
	`{"points":null,"extra":{"a":[1,2,3]}}`,
	`   [`,
	``,
}

// serveFuzz posts body to path under a request deadline of deadlineUS
// microseconds from now (none when 0, already past when negative) and
// holds the answer to the serving contract: one of 200, 400, 413, 429,
// 503 and 504, never a 500 and never a recovered panic.
func serveFuzz(t *testing.T, s *Server, path string, body []byte, deadlineUS int64) {
	ctx := context.Background()
	if deadlineUS != 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(deadlineUS%1e6)*time.Microsecond)
		defer cancel()
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)).WithContext(ctx)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	switch w.Code {
	case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge,
		http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
	default:
		t.Fatalf("%s %q: status %d: %s", path, body, w.Code, w.Body)
	}
	if n := s.cfg.Metrics.Panics.Load(); n != 0 {
		t.Fatalf("%s %q: %d handler panics", path, body, n)
	}
}

// FuzzAssign posts arbitrary bodies to /v1/assign of a k=4, d=2 model
// under arbitrary deadlines.
func FuzzAssign(f *testing.F) {
	for i, seed := range fuzzSeeds {
		f.Add([]byte(seed), int64(i-3))
	}
	f.Fuzz(func(t *testing.T, body []byte, deadlineUS int64) {
		s, _ := newTestServer(t, func(cfg *ServerConfig) { cfg.MaxPoints = 4 })
		serveFuzz(t, s, "/v1/assign", body, deadlineUS)
	})
}

// FuzzIngest posts arbitrary bodies to /v1/ingest of a trainer with a
// batch of 2 (a buffer of 8 points) under arbitrary deadlines; the
// buffer is filled first on odd deadlines, so the shed path runs too.
func FuzzIngest(f *testing.F) {
	for i, seed := range fuzzSeeds {
		f.Add([]byte(seed), int64(i-3))
	}
	src, err := dataset.NewGaussianMixture("serve-fuzz", 64, 2, 2, 0.15, 2.0, 0xF22)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte, deadlineUS int64) {
		s, st := newTestServer(t, nil)
		tr, err := NewTrainer(TrainerConfig{Store: st, Metrics: s.cfg.Metrics, Source: src, K: 2, BatchSamples: 2})
		if err != nil {
			t.Fatal(err)
		}
		s.cfg.Trainer = tr
		if deadlineUS%2 != 0 {
			if _, err := tr.Ingest([][]float64{{1, 2}, {1, 2}, {1, 2}, {1, 2}, {1, 2}, {1, 2}, {1, 2}, {1, 2}}); err != nil {
				t.Fatal(err)
			}
		}
		serveFuzz(t, s, "/v1/ingest", body, deadlineUS)
	})
}

// FuzzDecodeBody holds the server's decoding of arbitrary bodies, on
// both endpoints, to encoding/json's Decoder (checkDecode).
func FuzzDecodeBody(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add([]byte(seed))
	}
	for _, e := range decodeEdges {
		f.Add([]byte(e.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, body)
	})
}
