package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// canned is one scripted server answer.
type canned struct {
	status int
	body   string
}

// answer renders a 200 body for epoch with n assignments.
func answer(epoch uint64, n int) canned {
	a := strings.TrimSuffix(strings.Repeat("0,", n), ",")
	d := strings.TrimSuffix(strings.Repeat("0.5,", n), ",")
	return canned{http.StatusOK, fmt.Sprintf(`{"epoch":%d,"assignments":[%s],"distances":[%s]}`, epoch, a, d)}
}

// scripted serves the answers in order, one per request, and fails
// the test on a request past the script.
func scripted(t *testing.T, script []canned) *httptest.Server {
	t.Helper()
	var mu sync.Mutex
	next := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if r.URL.Path != "/v1/assign" || next == len(script) {
			t.Errorf("unscripted request %d to %s", next, r.URL.Path)
			w.WriteHeader(http.StatusTeapot)
			return
		}
		c := script[next]
		next++
		w.WriteHeader(c.status)
		fmt.Fprint(w, c.body)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// counts is the part of a worker's report doRequest decides.
type counts struct {
	Served, Shed, Retries, Failures, EpochRegressions, TornResponses uint64
}

func TestDoRequestCounts(t *testing.T) {
	for _, tc := range []struct {
		name     string
		requests int
		script   []canned
		want     counts
	}{
		{"shed then served", 1,
			[]canned{{http.StatusTooManyRequests, `{"error":"queue_full"}`}, answer(1, 4)},
			counts{Served: 1, Shed: 1, Retries: 1}},
		{"epoch regression", 2,
			[]canned{answer(5, 4), answer(3, 4)},
			counts{Served: 1, Failures: 1, EpochRegressions: 1}},
		{"torn response", 1,
			[]canned{answer(1, 2)},
			counts{Failures: 1, TornResponses: 1}},
		{"server error", 1,
			[]canned{{http.StatusInternalServerError, "boom"}},
			counts{Failures: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := scripted(t, tc.script)
			c := cfg{base: srv.URL, retries: 8, backoff: time.Millisecond}
			pts := [][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}}
			w := &worker{}
			for i := 0; i < tc.requests; i++ {
				w.doRequest(srv.Client(), c, pts)
			}
			got := counts{w.Served, w.Shed, w.Retries, w.Failures, w.EpochRegressions, w.TornResponses}
			if got != tc.want {
				t.Errorf("counts = %+v, want %+v (failures: %q)", got, tc.want, w.FailureSamples)
			}
		})
	}
}

func TestResolveAddr(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "never-written")
	if got, err := resolveAddr("127.0.0.1:9", missing, 0); err != nil || got != "127.0.0.1:9" {
		t.Errorf("-addr with an -addr-file = %q, %v; want -addr", got, err)
	}
	if _, err := resolveAddr("", "", time.Second); err == nil {
		t.Error("no address source accepted")
	}
	if _, err := resolveAddr("", missing, 50*time.Millisecond); err == nil || !strings.Contains(err.Error(), "-addr-file") {
		t.Errorf("never-written -addr-file: err = %v, want an -addr-file error", err)
	}

	// The daemon writes its address file once it listens, which may be
	// after the client started polling; the rename publishes it whole.
	late := filepath.Join(dir, "addr")
	written := make(chan struct{})
	go func() {
		defer close(written)
		time.Sleep(100 * time.Millisecond)
		tmp := late + ".tmp"
		if err := os.WriteFile(tmp, []byte("127.0.0.1:7\n"), 0o644); err != nil {
			t.Error(err)
			return
		}
		if err := os.Rename(tmp, late); err != nil {
			t.Error(err)
		}
	}()
	got, err := resolveAddr("", late, 10*time.Second)
	<-written
	if err != nil || got != "127.0.0.1:7" {
		t.Errorf("late -addr-file = %q, %v; want 127.0.0.1:7", got, err)
	}
}
