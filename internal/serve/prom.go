// The Prometheus exposition surface of the daemon: the serving
// counters, degradation gauges, and the request-latency histogram in
// text format 0.0.4 — plain text, no client library, because the
// format is line-oriented and the counters already exist. The
// histogram reuses internal/obs's log2 buckets verbatim, so a scrape
// and the daemon's own /v1/stats quantiles always agree on the
// underlying distribution.
package serve

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
)

// The emitted slice of the 64 log2 buckets: 2^promBucketLo..2^promBucketHi
// nanoseconds (≈1µs to ≈69s) plus +Inf. Counts below the first bound
// are folded in by the cumulative sums; serving latencies above the
// last land in +Inf.
const (
	promBucketLo = 10
	promBucketHi = 36
)

// promSnap is the consistent reading a scrape renders, decoupled from
// the HTTP layer for tests.
type promSnap struct {
	s    MetricsSnapshot
	hist obs.Histogram
}

// WritePrometheus renders one scrape of the metrics in Prometheus
// text format 0.0.4. store and trainer may be nil.
func WritePrometheus(w io.Writer, m *Metrics, store *Store, trainer *Trainer, start time.Time) error {
	return writeProm(w, promSnap{
		s:    m.Snap(store, trainer, start, 0, time.Time{}),
		hist: m.LatencyHist(),
	})
}

func writeProm(w io.Writer, ps promSnap) error {
	bw := bufio.NewWriter(w)
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(bw, "# HELP swkmeansd_%s_total %s\n", name, help)
		fmt.Fprintf(bw, "# TYPE swkmeansd_%s_total counter\n", name)
		fmt.Fprintf(bw, "swkmeansd_%s_total %d\n", name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(bw, "# HELP swkmeansd_%s %s\n", name, help)
		fmt.Fprintf(bw, "# TYPE swkmeansd_%s gauge\n", name)
		fmt.Fprintf(bw, "swkmeansd_%s %s\n", name, strconv.FormatFloat(v, 'g', -1, 64))
	}
	bool01 := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}

	s := ps.s
	counter("served", "Answered assignment requests (HTTP 200).", s.Served)
	counter("shed", "Requests refused at admission (HTTP 429).", s.Shed)
	counter("deadline", "Requests that hit their deadline mid-flight (HTTP 504).", s.Deadline)
	counter("not_ready", "Requests refused before the first snapshot or while draining (HTTP 503).", s.NotReady)
	counter("panics", "Handler panics absorbed by per-connection recovery (HTTP 500).", s.Panics)
	counter("bad_request", "Malformed queries (HTTP 400).", s.BadRequest)
	counter("too_large", "Request bodies over their size bound (HTTP 413).", s.TooLarge)
	counter("transient_retries", "Chaos-injected processing faults absorbed by the internal retry.", s.TransientRetries)
	counter("points", "Individual sample points assigned.", s.Points)
	counter("ingested", "Samples accepted by the ingest endpoint.", s.Ingested)
	counter("publishes", "Snapshots published to the store.", s.Publishes)
	counter("dropped_publishes", "Chaos-dropped snapshot publishes.", s.DroppedPublishes)
	counter("stale_publishes", "Publishes rejected for stale epochs.", s.StalePublishes)
	counter("trainer_crashes", "Trainer deaths (chaos-scheduled or real panics).", s.TrainerCrashes)
	counter("trainer_restarts", "Supervisor recoveries of the trainer.", s.TrainerRestarts)

	gauge("uptime_seconds", "Seconds since the server started.", float64(s.UptimeMS)/1e3)
	gauge("snapshot_epoch", "Epoch of the live snapshot (0 before the first publish).", float64(s.Epoch))
	gauge("snapshot_age_seconds", "Age of the live snapshot (-1 before the first publish).", float64(s.SnapshotAgeMS)/1e3)
	gauge("trainer_alive", "Whether the trainer loop is currently running.", bool01(s.TrainerAlive))
	gauge("degraded", "Whether the daemon is in degraded mode.", bool01(s.Degraded))

	fmt.Fprintf(bw, "# HELP swkmeansd_request_duration_seconds Latency of answered assignment requests.\n")
	fmt.Fprintf(bw, "# TYPE swkmeansd_request_duration_seconds histogram\n")
	var cum uint64
	i := 0
	for ; i <= promBucketHi && i < obs.NumHistBuckets; i++ {
		cum += ps.hist.Counts[i]
		if i < promBucketLo {
			continue
		}
		le := strconv.FormatFloat(obs.HistBucketUpper(i), 'g', -1, 64)
		fmt.Fprintf(bw, "swkmeansd_request_duration_seconds_bucket{le=%q} %d\n", le, cum)
	}
	for ; i < obs.NumHistBuckets; i++ {
		cum += ps.hist.Counts[i]
	}
	fmt.Fprintf(bw, "swkmeansd_request_duration_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(bw, "swkmeansd_request_duration_seconds_sum %s\n", strconv.FormatFloat(ps.hist.Sum, 'g', -1, 64))
	fmt.Fprintf(bw, "swkmeansd_request_duration_seconds_count %d\n", cum)

	if err := bw.Flush(); err != nil {
		return fmt.Errorf("serve: writing prometheus metrics: %w", err)
	}
	return nil
}

// handleMetrics is GET /metrics: the Prometheus scrape endpoint. It
// answers even while draining or degraded — the monitoring plane must
// outlive the data plane.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = WritePrometheus(w, s.cfg.Metrics, s.cfg.Store, s.cfg.Trainer, s.cfg.Start)
}
