package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Metrics aggregates the serving counters the degradation contract is
// judged by. Counter fields are lock-free; the latency reservoir is
// mutex-guarded. All methods are safe for concurrent use and valid on
// the zero value.
type Metrics struct {
	// Served counts answered assignment requests (HTTP 200).
	Served atomic.Uint64
	// Shed counts requests refused at admission (HTTP 429).
	Shed atomic.Uint64
	// Deadline counts requests that hit their deadline mid-flight
	// (HTTP 504) — clean sheds under the contract.
	Deadline atomic.Uint64
	// NotReady counts requests refused before the first snapshot or
	// while draining (HTTP 503).
	NotReady atomic.Uint64
	// Panics counts handler panics absorbed by per-connection recovery
	// (HTTP 500).
	Panics atomic.Uint64
	// BadRequest counts malformed queries (HTTP 400).
	BadRequest atomic.Uint64
	// TooLarge counts request bodies over their size bound (HTTP 413).
	TooLarge atomic.Uint64
	// TransientRetries counts chaos-injected processing faults absorbed
	// by the internal retry.
	TransientRetries atomic.Uint64
	// Points counts individual sample points assigned.
	Points atomic.Uint64
	// Ingested counts samples accepted by the ingest endpoint.
	Ingested atomic.Uint64
	// Publishes counts snapshots published to the store.
	Publishes atomic.Uint64
	// DroppedPublishes counts chaos-dropped snapshot publishes.
	DroppedPublishes atomic.Uint64
	// TrainerCrashes counts trainer deaths (chaos-scheduled or real
	// panics) and TrainerRestarts the supervisor's recoveries.
	TrainerCrashes  atomic.Uint64
	TrainerRestarts atomic.Uint64

	mu sync.Mutex
	// lat is the log2 latency histogram shared with the simulator's
	// observability layer (internal/obs) — fixed memory regardless of
	// request volume, whole-run coverage instead of a recent-request
	// ring; guarded by mu.
	lat obs.Histogram
}

// ObserveLatency records one answered request's wall-clock latency.
func (m *Metrics) ObserveLatency(d time.Duration) {
	m.mu.Lock()
	m.lat.Observe(d.Seconds())
	m.mu.Unlock()
}

// LatencyHist returns a copy of the latency histogram.
func (m *Metrics) LatencyHist() obs.Histogram {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lat
}

// quantiles returns the p50 and p99 of the latency histogram. Values
// are bucket upper bounds, so a quantile overstates the true latency
// by at most a factor of two (docs/SERVING.md pins this resolution).
func (m *Metrics) quantiles() (p50, p99 time.Duration) {
	h := m.LatencyHist()
	if h.Total() == 0 {
		return 0, 0
	}
	sec := func(q float64) time.Duration {
		return time.Duration(h.Quantile(q) * float64(time.Second))
	}
	return sec(0.50), sec(0.99)
}

// MetricsSnapshot is one point-in-time reading — the JSON object of the
// stats endpoint and of each JSONL metrics line (docs/SERVING.md has
// the schema).
type MetricsSnapshot struct {
	// TMS is the reading's wall-clock time in Unix milliseconds.
	TMS int64 `json:"t_ms"`
	// UptimeMS is milliseconds since the server started.
	UptimeMS int64 `json:"uptime_ms"`
	// Epoch and SnapshotAgeMS describe the live snapshot (0 / -1 before
	// the first publish).
	Epoch         uint64 `json:"epoch"`
	SnapshotAgeMS int64  `json:"snapshot_age_ms"`
	// QPS is answered requests per second since the previous reading
	// (whole-run mean on the stats endpoint).
	QPS float64 `json:"qps"`
	// P50MS and P99MS are latency quantiles over the recent-request
	// reservoir, in milliseconds.
	P50MS float64 `json:"p50_ms"`
	P99MS float64 `json:"p99_ms"`

	Served           uint64 `json:"served"`
	Shed             uint64 `json:"shed"`
	Deadline         uint64 `json:"deadline"`
	NotReady         uint64 `json:"not_ready"`
	Panics           uint64 `json:"panics"`
	BadRequest       uint64 `json:"bad_request"`
	TooLarge         uint64 `json:"too_large"`
	TransientRetries uint64 `json:"transient_retries"`
	Points           uint64 `json:"points"`
	Ingested         uint64 `json:"ingested"`
	Publishes        uint64 `json:"publishes"`
	DroppedPublishes uint64 `json:"dropped_publishes"`
	StalePublishes   uint64 `json:"stale_publishes"`
	TrainerCrashes   uint64 `json:"trainer_crashes"`
	TrainerRestarts  uint64 `json:"trainer_restarts"`
	// TrainerAlive reports whether the trainer loop is currently
	// running (false inside a crash/restart backoff window).
	TrainerAlive bool `json:"trainer_alive"`
	// Degraded mirrors the response-level degradation flag: the trainer
	// is dead or the snapshot is past its staleness budget.
	Degraded bool `json:"degraded"`
}

// Snap builds a reading. store, trainer may be nil; start anchors the
// uptime; prevServed/prevT, when non-zero, turn the QPS field into an
// interval rate.
func (m *Metrics) Snap(store *Store, trainer *Trainer, start time.Time, prevServed uint64, prevT time.Time) MetricsSnapshot {
	now := time.Now()
	p50, p99 := m.quantiles()
	s := MetricsSnapshot{
		TMS:              now.UnixMilli(),
		UptimeMS:         now.Sub(start).Milliseconds(),
		SnapshotAgeMS:    -1,
		P50MS:            float64(p50) / float64(time.Millisecond),
		P99MS:            float64(p99) / float64(time.Millisecond),
		Served:           m.Served.Load(),
		Shed:             m.Shed.Load(),
		Deadline:         m.Deadline.Load(),
		NotReady:         m.NotReady.Load(),
		Panics:           m.Panics.Load(),
		BadRequest:       m.BadRequest.Load(),
		TooLarge:         m.TooLarge.Load(),
		TransientRetries: m.TransientRetries.Load(),
		Points:           m.Points.Load(),
		Ingested:         m.Ingested.Load(),
		Publishes:        m.Publishes.Load(),
		DroppedPublishes: m.DroppedPublishes.Load(),
		TrainerCrashes:   m.TrainerCrashes.Load(),
		TrainerRestarts:  m.TrainerRestarts.Load(),
	}
	if store != nil {
		s.StalePublishes = store.Rejected()
		if snap := store.Current(); snap != nil {
			s.Epoch = snap.Epoch
			s.SnapshotAgeMS = snap.Staleness().Milliseconds()
		}
	}
	if trainer != nil {
		s.TrainerAlive = trainer.Alive()
		s.Degraded = trainer.Degraded()
	}
	window := now.Sub(prevT).Seconds()
	if prevT.IsZero() {
		window = now.Sub(start).Seconds()
	}
	if window > 0 {
		s.QPS = float64(s.Served-prevServed) / window
	}
	return s
}

// MetricsWriter periodically appends MetricsSnapshot JSONL lines to a
// sink — the serving counterpart of internal/obs's metrics log.
type MetricsWriter struct {
	m       *Metrics
	store   *Store
	trainer *Trainer
	w       io.Writer
	start   time.Time

	mu         sync.Mutex
	enc        *json.Encoder
	prevServed uint64
	prevT      time.Time
	err        error
	done       chan struct{}
	stop       chan struct{}
}

// NewMetricsWriter starts a writer emitting one line every interval
// until Stop. trainer may be nil.
func NewMetricsWriter(m *Metrics, store *Store, trainer *Trainer, w io.Writer, interval time.Duration) *MetricsWriter {
	if interval <= 0 {
		interval = time.Second
	}
	mw := &MetricsWriter{
		m: m, store: store, trainer: trainer, w: w,
		start: time.Now(),
		enc:   json.NewEncoder(w),
		done:  make(chan struct{}),
		stop:  make(chan struct{}),
	}
	go func() {
		defer close(mw.done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				mw.emit()
			case <-mw.stop:
				return
			}
		}
	}()
	return mw
}

// emit writes one reading; the first error is kept and stops further
// writes.
func (mw *MetricsWriter) emit() {
	mw.mu.Lock()
	defer mw.mu.Unlock()
	if mw.err != nil {
		return
	}
	s := mw.m.Snap(mw.store, mw.trainer, mw.start, mw.prevServed, mw.prevT)
	mw.prevServed, mw.prevT = s.Served, time.Now()
	if err := mw.enc.Encode(s); err != nil {
		mw.err = fmt.Errorf("serve: writing metrics line: %w", err)
	}
}

// Stop emits a final line and ends the writer, returning the first
// write error.
func (mw *MetricsWriter) Stop() error {
	select {
	case <-mw.stop:
	default:
		close(mw.stop)
	}
	<-mw.done
	mw.emit()
	mw.mu.Lock()
	defer mw.mu.Unlock()
	return mw.err
}
