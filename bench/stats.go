package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// summary is the distribution of one timing's samples, printed beside
// the metric so every reported value carries its sample count.
type summary struct {
	N                     int
	Min, Q1, Med, Q3, Max float64
	TailQ, Tail           float64
}

// summarize sorts a copy of xs and reads its order statistics.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := tailQuantile(len(s))
	return summary{
		N: len(s), Min: s[0], Max: s[len(s)-1],
		Q1: quantile(s, 0.25), Med: quantile(s, 0.5), Q3: quantile(s, 0.75),
		TailQ: q, Tail: nearestRank(s, q),
	}
}

// quantile interpolates linearly between the order statistics of the
// sorted sample s.
func quantile(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median returns the median of xs, which it does not modify.
func median(xs []float64) float64 { return summarize(xs).Med }

// tailQuantile is the quantile a tail latency reports for n samples:
// the highest one with at least ten samples beyond it, capped at p99.
// Below 21 samples no quantile above the median has ten samples beyond
// it, so the median is reported instead.
func tailQuantile(n int) float64 {
	q := math.Min(0.99, float64(n-10)/float64(n))
	return math.Max(0.5, q)
}

// nearestRank returns the smallest sample of the sorted s with at
// least a share q of the samples at or below it; at q = 0.5 it returns
// the median so that the two never disagree.
func nearestRank(s []float64, q float64) float64 {
	if q <= 0.5 {
		return quantile(s, 0.5)
	}
	// The slack keeps q·n that rounds just above an integer from
	// stepping one rank too far.
	k := int(math.Ceil(q*float64(len(s)) - 1e-9))
	return s[max(k, 1)-1]
}

// minOf returns the smallest of xs.
func minOf(xs []float64) float64 { return summarize(xs).Min }

// tail is the tail latency of xs (see tailQuantile).
func tail(xs []float64) float64 { return summarize(xs).Tail }

// windowTail is the median over measurement windows of each window's
// tail: one disturbed window moves it less than a tail taken over the
// pooled samples.
func windowTail(windows [][]float64) float64 {
	tails := make([]float64, 0, len(windows))
	for _, w := range windows {
		if len(w) > 0 {
			tails = append(tails, tail(w))
		}
	}
	if len(tails) == 0 {
		return 0
	}
	return median(tails)
}

// measurement is the outcome of one measuring pass: operation
// latencies in milliseconds, grouped into windows of the run — one
// operation per window when operations run back to back, fixed
// stretches of time for served requests.
type measurement struct {
	lat [][]float64
	// wall holds back-to-back operations' wall times, which lat has
	// less the time the host stole; the report prints both.
	wall []float64
}

// backToBack is the measurement of operations run one after another,
// given each one's latency in milliseconds.
func backToBack(lat []float64) measurement {
	m := measurement{lat: make([][]float64, len(lat))}
	for i, l := range lat {
		m.lat[i] = []float64{l}
	}
	return m
}

// latency is the median latency over the run.
func (m measurement) latency() float64 { return median(m.all()) }

// tail is the run's tail latency: the median of the window tails when
// windows hold many requests, else the tail of all operations.
func (m measurement) tail() float64 {
	for _, w := range m.lat {
		if len(w) > 1 {
			return windowTail(m.lat)
		}
	}
	return tail(m.all())
}

// all pools every window's latencies.
func (m measurement) all() []float64 {
	var out []float64
	for _, w := range m.lat {
		out = append(out, w...)
	}
	return out
}

// openLoop is a fixed-rate arrival schedule. Request i is due at
// start + i/rate whatever happened to earlier requests, so a stall
// delays every request queued behind it and that wait is counted.
type openLoop struct {
	start    time.Time
	interval time.Duration
}

func newOpenLoop(start time.Time, rate float64) openLoop {
	return openLoop{start: start, interval: time.Duration(float64(time.Second) / rate)}
}

// due returns when request i should be sent.
func (o openLoop) due(i int) time.Time {
	return o.start.Add(time.Duration(i) * o.interval)
}

// latency is the response time of a request charged from its due
// time, not from when it was actually sent.
func (o openLoop) latency(i int, done time.Time) time.Duration {
	return done.Sub(o.due(i))
}

// lateness is how long after its due time the generator sent request
// i; it stays near zero while the generator keeps its schedule.
func (o openLoop) lateness(i int, sent time.Time) time.Duration {
	if l := sent.Sub(o.due(i)); l > 0 {
		return l
	}
	return 0
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// hostClock reads the clocks an operation's active time is worked out
// from: wall time, the process's CPU time and the CPU time the
// hypervisor stole from this virtual machine.
type hostClock struct {
	wall       time.Time
	cpu, steal time.Duration
}

func readHostClock() hostClock {
	return hostClock{wall: time.Now(), cpu: processCPU(), steal: stolen()}
}

// activeSince returns the wall time since c less the part the host
// stole, and the wall time. On a shared virtual machine the host now
// and then deschedules the guest's CPUs; the kernel counts that time
// as steal, and the process's CPU time leaves it out. The process got
// cpu of the cpu+steal it asked for, so had the host not stolen, the
// operation would have taken wall·cpu/(cpu+steal): wall − steal for a
// single thread, wall − steal/2 for work keeping two CPUs busy. Where
// no steal is counted the two are equal.
func (c hostClock) activeSince() (active, wall time.Duration) {
	now := readHostClock()
	wall = now.wall.Sub(c.wall)
	return activeTime(wall, now.cpu-c.cpu, now.steal-c.steal), wall
}

// activeTime is wall·cpu/(cpu+steal) (see activeSince).
func activeTime(wall, cpu, steal time.Duration) time.Duration {
	if steal <= 0 || cpu <= 0 {
		return wall
	}
	return time.Duration(float64(wall) * float64(cpu) / float64(cpu+steal))
}

// processCPU is the user and system CPU time of the process so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stolen is the steal time of all CPUs since boot, the eighth value of
// the cpu line of /proc/stat in USER_HZ ticks (100 a second on Linux),
// or 0 where the kernel does not report it.
func stolen() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * (time.Second / 100)
}
