// Command kmload is the load and chaos-verification client for
// swkmeansd: it drives concurrent assignment queries with retry and
// exponential backoff, and asserts the serving invariants the
// degradation contract promises (docs/SERVING.md):
//
//   - every query is answered or cleanly shed (429 queue-full, 503
//     not-ready/draining, 504 deadline) — anything else is a failure;
//   - snapshot epochs observed by one sequential client never regress;
//   - responses are never torn: the answer shape always matches the
//     query.
//
// It exits 0 when the invariants hold, 1 when they are violated (or
// -min-* thresholds are missed), 2 on unusable flags, and prints a
// JSON report to stdout.
//
// Example:
//
//	kmload -addr-file /tmp/addr -duration 2s -concurrency 8 -min-epochs 2
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/dataset"
)

func main() {
	var (
		addr        = flag.String("addr", "", "server address host:port (or use -addr-file)")
		addrFile    = flag.String("addr-file", "", "read the server address from this file")
		duration    = flag.Duration("duration", 2*time.Second, "load duration")
		concurrency = flag.Int("concurrency", 8, "concurrent closed-loop workers")
		points      = flag.Int("points", 4, "points per assignment request")
		d           = flag.Int("d", 16, "query dimensionality (must match the daemon)")
		components  = flag.Int("components", 8, "components of the synthetic query mix")
		seed        = flag.Uint64("seed", 2, "deterministic query seed")
		deadlineMS  = flag.Int64("deadline-ms", 0, "per-request deadline sent to the server (0 = server default)")
		retries     = flag.Int("retries", 8, "retry budget per request")
		backoff     = flag.Duration("backoff", 5*time.Millisecond, "base retry backoff, doubling per attempt")
		waitReady   = flag.Duration("wait-ready", 10*time.Second, "budget for the server to become ready before loading")
		minServed   = flag.Int("min-served", 1, "fail unless at least this many queries were answered")
		minEpochs   = flag.Uint64("min-epochs", 0, "fail unless the highest observed epoch reaches this")
	)
	flag.Parse()
	target, err := resolveAddr(*addr, *addrFile, *waitReady)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kmload:", err)
		os.Exit(2)
	}
	if *concurrency < 1 || *points < 1 || *retries < 0 {
		fmt.Fprintln(os.Stderr, "kmload: -concurrency and -points must be positive, -retries non-negative")
		os.Exit(2)
	}
	rep, err := run(cfg{
		base: "http://" + target, duration: *duration, workers: *concurrency,
		points: *points, d: *d, components: *components, seed: *seed,
		deadlineMS: *deadlineMS, retries: *retries, backoff: *backoff,
		waitReady: *waitReady,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "kmload:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	_ = enc.Encode(rep)
	ok := true
	if rep.Failures > 0 || rep.EpochRegressions > 0 || rep.TornResponses > 0 {
		ok = false
	}
	if rep.Served < uint64(*minServed) {
		fmt.Fprintf(os.Stderr, "kmload: served %d < -min-served %d\n", rep.Served, *minServed)
		ok = false
	}
	if rep.MaxEpoch < *minEpochs {
		fmt.Fprintf(os.Stderr, "kmload: max epoch %d < -min-epochs %d\n", rep.MaxEpoch, *minEpochs)
		ok = false
	}
	if !ok {
		os.Exit(1)
	}
}

type cfg struct {
	base       string
	duration   time.Duration
	workers    int
	points, d  int
	components int
	seed       uint64
	deadlineMS int64
	retries    int
	backoff    time.Duration
	waitReady  time.Duration
}

// report is the JSON verdict written to stdout.
type report struct {
	// Served counts answered queries, Shed the clean refusals (429
	// queue-full, 503 not-ready, 504 deadline), Failures everything
	// else — transport errors, 5xx, malformed bodies.
	Served   uint64 `json:"served"`
	Shed     uint64 `json:"shed"`
	Deadline uint64 `json:"deadline"`
	NotReady uint64 `json:"not_ready"`
	Failures uint64 `json:"failures"`
	// Retries counts retry attempts spent across all requests.
	Retries uint64 `json:"retries"`
	// EpochRegressions counts responses whose epoch went backwards for
	// a sequential worker; the invariant demands zero.
	EpochRegressions uint64 `json:"epoch_regressions"`
	// TornResponses counts answers whose shape did not match the query;
	// the invariant demands zero.
	TornResponses uint64 `json:"torn_responses"`
	MaxEpoch      uint64 `json:"max_epoch"`
	// DegradedSeen counts answers flagged degraded (trainer dead or
	// snapshot stale) and MaxStalenessMS the largest staleness
	// reported — proof the contract surfaced the degradation.
	DegradedSeen   uint64   `json:"degraded_seen"`
	MaxStalenessMS int64    `json:"max_staleness_ms"`
	P50MS          float64  `json:"p50_ms"`
	P99MS          float64  `json:"p99_ms"`
	QPS            float64  `json:"qps"`
	FailureSamples []string `json:"failure_samples,omitempty"`
}

// resolveAddr returns the target address, polling -addr-file into
// existence within the budget when used.
func resolveAddr(addr, addrFile string, wait time.Duration) (string, error) {
	if addr != "" {
		return addr, nil
	}
	if addrFile == "" {
		return "", fmt.Errorf("need -addr or -addr-file")
	}
	deadline := time.Now().Add(wait)
	for {
		b, err := os.ReadFile(addrFile)
		if err == nil && len(bytes.TrimSpace(b)) > 0 {
			return string(bytes.TrimSpace(b)), nil
		}
		if time.Now().After(deadline) {
			if err != nil {
				return "", fmt.Errorf("reading -addr-file: %w", err)
			}
			return "", fmt.Errorf("-addr-file %s stayed empty for %v", addrFile, wait)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

type assignResponse struct {
	Epoch       uint64    `json:"epoch"`
	StalenessMS int64     `json:"staleness_ms"`
	Degraded    bool      `json:"degraded"`
	Assignments []int     `json:"assignments"`
	Distances   []float64 `json:"distances"`
}

// worker aggregates one goroutine's observations; merged at the end.
type worker struct {
	report
	latencies []time.Duration
	lastEpoch uint64
}

func run(c cfg) (*report, error) {
	if err := waitReady(c.base, c.waitReady); err != nil {
		return nil, err
	}
	queries, err := dataset.NewGaussianMixture("load", 4096, c.d, c.components, 0.25, 2.0, c.seed)
	if err != nil {
		return nil, fmt.Errorf("building query mix: %w", err)
	}
	stop := time.Now().Add(c.duration)
	workers := make([]*worker, c.workers)
	var wg sync.WaitGroup
	for wi := range workers {
		w := &worker{}
		workers[wi] = w
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			client := &http.Client{Timeout: 5 * time.Second}
			buf := make([]float64, c.d)
			for seq := 0; time.Now().Before(stop); seq++ {
				pts := make([][]float64, c.points)
				for p := range pts {
					queries.Sample((id*100003+seq*c.points+p)%queries.N(), buf)
					pts[p] = append([]float64(nil), buf...)
				}
				w.doRequest(client, c, pts)
			}
		}(wi)
	}
	wg.Wait()

	total := &report{}
	var lats []time.Duration
	for _, w := range workers {
		total.Served += w.Served
		total.Shed += w.Shed
		total.Deadline += w.Deadline
		total.NotReady += w.NotReady
		total.Failures += w.Failures
		total.Retries += w.Retries
		total.EpochRegressions += w.EpochRegressions
		total.TornResponses += w.TornResponses
		total.DegradedSeen += w.DegradedSeen
		if w.MaxEpoch > total.MaxEpoch {
			total.MaxEpoch = w.MaxEpoch
		}
		if w.MaxStalenessMS > total.MaxStalenessMS {
			total.MaxStalenessMS = w.MaxStalenessMS
		}
		for _, s := range w.FailureSamples {
			if len(total.FailureSamples) < 5 {
				total.FailureSamples = append(total.FailureSamples, s)
			}
		}
		lats = append(lats, w.latencies...)
	}
	if len(lats) > 0 {
		sortDurations(lats)
		total.P50MS = float64(lats[len(lats)/2]) / float64(time.Millisecond)
		total.P99MS = float64(lats[(len(lats)-1)*99/100]) / float64(time.Millisecond)
	}
	if c.duration > 0 {
		total.QPS = float64(total.Served) / c.duration.Seconds()
	}
	return total, nil
}

// doRequest issues one query with the retry/backoff loop. Clean sheds
// are retried; failures are recorded and not retried further than the
// budget.
func (w *worker) doRequest(client *http.Client, c cfg, pts [][]float64) {
	body, err := json.Marshal(map[string]any{"points": pts, "deadline_ms": c.deadlineMS})
	if err != nil {
		w.fail("marshal: " + err.Error())
		return
	}
	delay := c.backoff
	for attempt := 0; ; attempt++ {
		t0 := time.Now()
		status, respBody, err := post(client, c.base+"/v1/assign", body)
		if err == nil && status == http.StatusOK {
			var resp assignResponse
			if jerr := json.Unmarshal(respBody, &resp); jerr != nil {
				w.fail("decode: " + jerr.Error())
				return
			}
			if len(resp.Assignments) != len(pts) || len(resp.Distances) != len(pts) {
				w.TornResponses++
				w.fail(fmt.Sprintf("torn response: %d assignments for %d points", len(resp.Assignments), len(pts)))
				return
			}
			if resp.Epoch < w.lastEpoch {
				w.EpochRegressions++
				w.fail(fmt.Sprintf("epoch regression: %d after %d", resp.Epoch, w.lastEpoch))
				return
			}
			w.lastEpoch = resp.Epoch
			if resp.Epoch > w.MaxEpoch {
				w.MaxEpoch = resp.Epoch
			}
			if resp.Degraded {
				w.DegradedSeen++
			}
			if resp.StalenessMS > w.MaxStalenessMS {
				w.MaxStalenessMS = resp.StalenessMS
			}
			w.Served++
			w.latencies = append(w.latencies, time.Since(t0))
			return
		}
		shed := false
		if err == nil {
			switch status {
			case http.StatusTooManyRequests:
				w.Shed++
				shed = true
			case http.StatusServiceUnavailable:
				w.NotReady++
				shed = true
			case http.StatusGatewayTimeout:
				w.Deadline++
				shed = true
			}
		}
		if !shed {
			reason := "transport: <nil>"
			if err != nil {
				reason = "transport: " + err.Error()
			} else {
				reason = fmt.Sprintf("status %d: %s", status, strings.TrimSpace(string(respBody)))
			}
			w.fail(reason)
			return
		}
		// Clean shed: retry with exponential backoff within the budget.
		if attempt >= c.retries {
			return
		}
		w.Retries++
		time.Sleep(delay)
		delay *= 2
	}
}

// fail records a non-shed failure with a bounded sample of reasons.
func (w *worker) fail(reason string) {
	w.Failures++
	if len(w.FailureSamples) < 5 {
		w.FailureSamples = append(w.FailureSamples, reason)
	}
}

// post issues one POST and reads the whole body.
func post(client *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, b, nil
}

// waitReady polls readyz until it answers 200 or the budget runs out.
func waitReady(base string, wait time.Duration) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(wait)
	var last string
	for time.Now().Before(deadline) {
		resp, err := client.Get(base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			last = resp.Status
		} else {
			last = err.Error()
		}
		time.Sleep(25 * time.Millisecond)
	}
	return fmt.Errorf("server at %s not ready within %v (last: %s)", base, wait, last)
}

// sortDurations orders the merged latency sample for the quantiles.
func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}
