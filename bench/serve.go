package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/serve"
)

// service is a serve.Server listening on loopback.
type service struct {
	srv  *serve.Server
	hs   *http.Server
	base string
	done chan error
}

func startService(cfg serve.ServerConfig) (*service, error) {
	srv, err := serve.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{srv: srv, hs: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// waitReady polls /readyz until it answers 200.
func (s *service) waitReady() error {
	c := newConn()
	defer c.CloseIdleConnections()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		if status, _, err := get(c, s.base+"/readyz"); err == nil && status == http.StatusOK {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return errors.New("server not ready within 10s")
}

// stop closes the listener and every connection and waits for Serve
// to return.
func (s *service) stop() {
	if s == nil {
		return
	}
	s.hs.Close()
	<-s.done
}

// newConn returns a client that holds one keep-alive connection: the
// load generator opens one per lane, at most two in all.
func newConn() *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		},
	}
}

func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func get(c *http.Client, url string) (int, []byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// outcome is one request the load generator sent.
type outcome struct {
	due  time.Time
	lat  float64 // ms from the due time to the answer
	late float64 // ms the send lagged the due time
	err  error
}

// openLane sends requests first, first+step, ... of the schedule on
// one connection until end.
func openLane(o openLoop, first, step int, end time.Time, do func(i int) error) []outcome {
	var out []outcome
	for i := first; o.due(i).Before(end); i += step {
		if wait := time.Until(o.due(i)); wait > 0 {
			time.Sleep(wait)
		}
		sent := time.Now()
		err := do(i)
		out = append(out, outcome{due: o.due(i), lat: ms(o.latency(i, time.Now())), late: ms(o.lateness(i, sent)), err: err})
	}
	return out
}

// closedLane sends requests back to back on one connection until end.
func closedLane(first, step int, end time.Time, do func(i int) error) []outcome {
	var out []outcome
	for i := first; time.Now().Before(end); i += step {
		t0 := time.Now()
		err := do(i)
		out = append(out, outcome{due: t0, lat: ms(time.Since(t0)), err: err})
	}
	return out
}

// lanes runs one lane per connection concurrently and returns their
// outcomes.
func lanes(n int, lane func(c int) []outcome) [][]outcome {
	outs := make([][]outcome, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			outs[c] = lane(c)
		}(c)
	}
	wg.Wait()
	return outs
}

// tally counts every outcome as an operation and groups the
// successful ones' latencies into windows of the given length by due
// time. It also returns every successful request's lateness.
func tally(r *run, outs [][]outcome, start time.Time, window time.Duration, windows int) ([][]float64, []float64) {
	lat := make([][]float64, windows)
	var late []float64
	for _, lane := range outs {
		for _, o := range lane {
			if !r.op(o.err) {
				continue
			}
			wi := min(max(int(o.due.Sub(start)/window), 0), windows-1)
			lat[wi] = append(lat[wi], o.lat)
			late = append(late, o.late)
		}
	}
	return lat, late
}

// assignResponse mirrors the /v1/assign answer.
type assignResponse struct {
	Epoch       uint64    `json:"epoch"`
	StalenessMS int64     `json:"staleness_ms"`
	Assignments []int     `json:"assignments"`
	Distances   []float64 `json:"distances"`
}

func doAssign(c *http.Client, url string, body []byte, points int) (assignResponse, error) {
	var resp assignResponse
	status, b, err := post(c, url, body)
	if err != nil {
		return resp, err
	}
	if status != http.StatusOK {
		return resp, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(b))
	}
	if err := json.Unmarshal(b, &resp); err != nil {
		return resp, err
	}
	if len(resp.Assignments) != points || len(resp.Distances) != points {
		return resp, fmt.Errorf("torn answer: %d assignments for %d points", len(resp.Assignments), points)
	}
	return resp, nil
}

// queryBodies encodes consecutive samples of src, points per request,
// as assignment request bodies, and returns the points too.
func queryBodies(src dataset.Source, from, requests, points int) ([][]byte, [][][]float64, error) {
	bodies := make([][]byte, requests)
	pts := make([][][]float64, requests)
	for q := range bodies {
		pts[q] = make([][]float64, points)
		for p := range pts[q] {
			pts[q][p] = make([]float64, src.D())
			src.Sample(from+q*points+p, pts[q][p])
		}
		b, err := json.Marshal(map[string]any{"points": pts[q]})
		if err != nil {
			return nil, nil, err
		}
		bodies[q] = b
	}
	return bodies, pts, nil
}

// serveRead is the query path alone: one fixed snapshot and
// assignment requests sent back to back on one connection, every
// answer checked against Snapshot.Assign. The open loop at a nominal
// rate and the capacity are traced-run probes.
type serveRead struct {
	k, d, shards, points, requests int
	batch                          int           // requests per timed batch
	rate                           float64       // the open-loop probe's, req/s
	probe                          time.Duration // each probe's length

	cents  []float64
	bodies [][]byte
	pts    [][][]float64
	want   [][]int
	dists  [][]float64

	svc     *service
	snap    *serve.Snapshot
	metrics *serve.Metrics
}

func newServeRead(small bool) workload {
	if small {
		return &serveRead{k: 64, d: 16, shards: 4, points: 4, requests: 32, batch: 10, rate: 200, probe: 400 * time.Millisecond}
	}
	return &serveRead{k: 1024, d: 64, shards: 4, points: 16, requests: 256, batch: 50, rate: 200, probe: 4 * time.Second}
}

// inputs generates the model, the queries and their answers from the
// seed, once.
func (w *serveRead) inputs(seed uint64) error {
	if w.cents != nil {
		return nil
	}
	g, err := dataset.NewGaussianMixture("serve", w.k+w.requests*w.points, w.d, 64, 0.25, 2.0, seed)
	if err != nil {
		return err
	}
	cents := make([]float64, w.k*w.d)
	for j := 0; j < w.k; j++ {
		g.Sample(j, cents[j*w.d:(j+1)*w.d])
	}
	if w.bodies, w.pts, err = queryBodies(g, w.k, w.requests, w.points); err != nil {
		return err
	}
	ref, err := serve.NewSnapshot(1, cents, w.k, w.d, w.shards, 0, "bench")
	if err != nil {
		return err
	}
	w.want = make([][]int, w.requests)
	w.dists = make([][]float64, w.requests)
	for q, pts := range w.pts {
		for _, x := range pts {
			j, dist, err := ref.Assign(x, nil)
			if err != nil {
				return err
			}
			w.want[q] = append(w.want[q], j)
			w.dists[q] = append(w.dists[q], dist)
		}
	}
	w.cents = cents
	return nil
}

// setup publishes the model and starts the server; the time until
// /readyz answers 200 is the set-up time.
func (w *serveRead) setup(r *run) (time.Duration, error) {
	if err := w.inputs(r.seed); err != nil {
		return 0, err
	}
	t0 := time.Now()
	var err error
	if w.snap, err = serve.NewSnapshot(1, w.cents, w.k, w.d, w.shards, 0, "bench"); err != nil {
		return 0, err
	}
	store := &serve.Store{}
	if err := store.Publish(w.snap); err != nil {
		return 0, err
	}
	w.metrics = &serve.Metrics{}
	if w.svc, err = startService(serve.ServerConfig{Store: store, Metrics: w.metrics}); err != nil {
		return 0, err
	}
	err = w.svc.waitReady()
	return time.Since(t0), err
}

func (w *serveRead) close() {
	w.svc.stop()
	w.svc = nil
}

// check compares an answer with the precomputed one, bit for bit.
func (w *serveRead) check(q int, resp assignResponse) error {
	for p := range w.want[q] {
		if resp.Assignments[p] != w.want[q][p] || math.Float64bits(resp.Distances[p]) != math.Float64bits(w.dists[q][p]) {
			return fmt.Errorf("query %d point %d: got centroid %d at %g, want %d at %g",
				q, p, resp.Assignments[p], resp.Distances[p], w.want[q][p], w.dists[q][p])
		}
	}
	return nil
}

// assign sends query i%requests on c and checks the answer; lane
// places its span in a traced run.
func (w *serveRead) assign(r *run, c *http.Client, lane, i int) error {
	q := i % w.requests
	id := r.span("POST /v1/assign", lane)
	resp, err := doAssign(c, w.svc.base+"/v1/assign", w.bodies[q], w.points)
	r.tr.end(id)
	if err != nil {
		return err
	}
	return w.check(q, resp)
}

// measure sends requests back to back on one connection, as a caller
// that waits for each answer does, and times them in batches: each
// batch's active time (see hostClock.activeSince) over its requests is
// one sample. The host's steal shows in an open loop as queueing that
// no clock can take out again, so the open loop is a probe (layers).
func (w *serveRead) measure(r *run, d time.Duration) (measurement, error) {
	c := newConn()
	defer c.CloseIdleConnections()
	i := 0
	m, err := loop(d, func() error {
		for end := i + w.batch; i < end; i++ {
			r.op(w.assign(r, c, 1, i))
		}
		return nil
	})
	for _, x := range m.lat {
		x[0] /= float64(w.batch)
	}
	for k := range m.wall {
		m.wall[k] /= float64(w.batch)
	}
	return m, err
}

func (w *serveRead) layers(r *run) error {
	secs, err := r.timed("serve.Snapshot.Assign", 200*time.Millisecond, 3, func() error {
		for _, pts := range w.pts {
			for _, x := range pts {
				if _, _, err := w.snap.Assign(x, nil); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.set("serve.assign_us", secs*1e6/float64(w.requests*w.points))
	h := w.svc.srv.Handler()
	q := 0
	secs, err = r.timed("serve.Handler.ServeHTTP", 200*time.Millisecond, 10, func() error {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/assign", bytes.NewReader(w.bodies[q%w.requests])))
		q++
		if rec.Code != http.StatusOK {
			return fmt.Errorf("handler answered %d", rec.Code)
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.set("serve.handler_us", secs*1e6)
	c := newConn()
	defer c.CloseIdleConnections()
	secs, err = r.timed("GET /healthz", 200*time.Millisecond, 10, func() error {
		status, _, err := get(c, w.svc.base+"/healthz")
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("healthz answered %d", status)
		}
		return err
	})
	if err != nil {
		return err
	}
	r.set("http.rtt_us", secs*1e6)

	// The open loop at the nominal rate over two connections, requests
	// timed from their due time, in eight windows: the median window
	// tail replaces the back-to-back tail_ms, and the generator's
	// lateness says whether the load was offered at all.
	const conns = 2
	clients := []*http.Client{newConn(), newConn()}
	defer func() {
		for _, c := range clients {
			c.CloseIdleConnections()
		}
	}()
	start := time.Now()
	o := newOpenLoop(start, w.rate)
	outs := lanes(conns, func(c int) []outcome {
		return openLane(o, c, conns, start.Add(w.probe), func(i int) error { return w.assign(r, clients[c], 1+c, i) })
	})
	lat, late := tally(r, outs, start, w.probe/8, 8)
	if len(late) == 0 {
		return errors.New("no open-loop request succeeded")
	}
	r.set("tail_ms", windowTail(lat))
	r.set("gen.late_ms", tail(late))

	// Back to back on both connections in eight windows: the capacity
	// is the best window's rate, the highest the server sustained for
	// an eighth of the probe.
	window := w.probe / 8
	capStart := time.Now()
	capOuts := lanes(conns, func(c int) []outcome {
		return closedLane(c, conns, capStart.Add(w.probe), func(i int) error { return w.assign(r, clients[c], 1+c, i) })
	})
	capLat, _ := tally(r, capOuts, capStart, window, 8)
	best := 0
	for _, w := range capLat {
		best = max(best, len(w))
	}
	r.set("serve.capacity_rps", float64(best)/window.Seconds())
	r.set("serve.shed", float64(w.metrics.Shed.Load()))
	r.set("serve.deadline", float64(w.metrics.Deadline.Load()))
	return nil
}
