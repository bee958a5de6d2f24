package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// tracer keeps the traced run's spans in memory: one span around each
// call the benchmark makes into a layer. They are written out as Chrome
// trace events when the run ends. A nil tracer records nothing.
type tracer struct {
	origin time.Time
	runID  string

	mu    sync.Mutex
	spans []span // guarded by mu
}

// span is one timed call. Spans on one lane nest; lanes separate
// concurrent callers such as the load generator's connections.
type span struct {
	name       string
	parent     int // id of the enclosing span, 0 for none
	lane       int
	start, end time.Duration // since the tracer's origin
}

func newTracer(workload string, seed uint64) *tracer {
	return &tracer{
		origin: time.Now(),
		runID:  fmt.Sprintf("%s/seed-%d/pid-%d", workload, seed, os.Getpid()),
	}
}

// start opens a span and returns its id (0 on a nil tracer).
func (t *tracer) start(name string, parent, lane int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, lane: lane, start: now, end: -1})
	return len(t.spans)
}

// end closes the span with the given id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// chromeEvent is one complete ("X") event of the Chrome trace format,
// which Perfetto and chrome://tracing load.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as a Chrome trace; unclosed spans end
// at the write.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	now := time.Since(t.origin)
	events := make([]chromeEvent, len(t.spans))
	for i, s := range t.spans {
		end := s.end
		if end < 0 {
			end = now
		}
		events[i] = chromeEvent{
			Name: s.name, Ph: "X", PID: 1, TID: s.lane,
			TS:   float64(s.start) / float64(time.Microsecond),
			Dur:  float64(end-s.start) / float64(time.Microsecond),
			Args: map[string]any{"id": i + 1, "parent": s.parent, "run": t.runID},
		}
	}
	t.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// writeArtifacts writes the traced run's span trace and CPU profile
// to the output directory, when one is set.
func (r *run) writeArtifacts() error {
	if r.out == "" {
		return nil
	}
	if err := os.MkdirAll(r.out, 0o755); err != nil {
		return err
	}
	if err := r.tr.writeChrome(filepath.Join(r.out, r.name+".trace.json")); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := os.WriteFile(filepath.Join(r.out, r.name+".cpu.pprof"), r.cpuProfile, 0o644); err != nil {
		return fmt.Errorf("writing CPU profile: %w", err)
	}
	return nil
}
