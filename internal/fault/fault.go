// Package fault is the deterministic fault-injection subsystem of the
// simulated machine. At the paper's headline scale — 4,096 SW26010
// nodes, 1,064,496 cores — component failure during a clustering job
// is the expected case, not the exception, so the simulator must be
// able to misbehave on demand: core groups crash at scheduled virtual
// times, DMA transfers fail transiently, network links degrade or flap
// inside virtual-time windows, and individual CPEs run slow.
//
// Everything is a pure function of the fault Plan's seed and the
// virtual times at which the simulated units consult the injector, so
// an identical plan and configuration reproduces a byte-identical
// failure and recovery timeline on every run — faults are part of the
// experiment, and recovery cost is measured in the same virtual
// seconds every figure reports. No wall clock and no global randomness
// are involved (the package is inside swlint's no-wallclock scope).
package fault

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/machine"
)

// Crash schedules a fail-stop of one core group: the CG executes
// normally until its virtual clock reaches At, then stops responding
// forever (crashes manifest at message boundaries, the granularity at
// which a real MPI job observes a dead peer).
type Crash struct {
	// CG is the global core-group index.
	CG int
	// At is the virtual time of the failure in seconds.
	At float64
}

// LinkDegrade slows the traffic between two core groups inside a
// virtual-time window. Several windows over the same pair model a
// flapping link. A CG of -1 is a wildcard matching any endpoint, so
// {-1, -1} degrades the whole fabric.
type LinkDegrade struct {
	// FromCG and ToCG identify the link endpoints (order-insensitive);
	// -1 matches any CG.
	FromCG, ToCG int
	// From and To bound the degradation window [From, To) in virtual
	// seconds.
	From, To float64
	// Factor multiplies the transfer time of messages crossing the
	// link inside the window; it must be at least 1.
	Factor float64
}

// Straggler slows the compute of one CPE (or a whole core group when
// CPE is -1) by a constant factor — the slow-node failure mode that
// dominates large allocations in practice.
type Straggler struct {
	// CG is the global core-group index.
	CG int
	// CPE is the CPE index within the CG, or -1 for the whole CG.
	CPE int
	// Factor multiplies compute time; it must be at least 1.
	Factor float64
}

// Plan is a complete, seeded fault schedule for one simulated job.
// The zero value injects nothing.
type Plan struct {
	// Seed drives every probabilistic decision (transient DMA and
	// message faults). Two runs with equal Seed and equal virtual-time
	// trajectories draw identical faults.
	Seed uint64
	// Crashes lists the scheduled fail-stop failures.
	Crashes []Crash
	// DMAFailRate is the probability that one DMA transfer attempt
	// fails transiently and must be retried.
	DMAFailRate float64
	// MsgFailRate is the probability that one message transmission
	// attempt fails transiently and must be retransmitted.
	MsgFailRate float64
	// MaxRetries bounds the retry attempts for transient DMA and
	// message faults before the operation fails permanently
	// (default 3).
	MaxRetries int
	// RetryBackoff is the base backoff charged to the virtual clock
	// per retry, doubling per attempt (default 2e-6 s).
	RetryBackoff float64
	// HeartbeatTimeout is the virtual-time failure-detection latency:
	// a peer of a CG that crashed at time t is detected as failed at
	// t + HeartbeatTimeout (default 5e-4 s).
	HeartbeatTimeout float64
	// Links lists the degradation windows.
	Links []LinkDegrade
	// Stragglers lists the slow units.
	Stragglers []Straggler
}

// Defaults for the retry and detection knobs.
const (
	DefaultMaxRetries       = 3
	DefaultRetryBackoff     = 2e-6
	DefaultHeartbeatTimeout = 5e-4
)

// Empty reports whether the plan injects nothing at all.
func (p Plan) Empty() bool {
	//swlint:ignore float-eq -- an exactly-zero rate is the unset sentinel of the zero Plan, not a computed value
	return len(p.Crashes) == 0 && p.DMAFailRate == 0 && p.MsgFailRate == 0 &&
		len(p.Links) == 0 && len(p.Stragglers) == 0
}

// withDefaults returns a copy with the retry/detection defaults
// applied.
func (p Plan) withDefaults() Plan {
	if p.MaxRetries == 0 {
		p.MaxRetries = DefaultMaxRetries
	}
	//swlint:ignore float-eq -- exactly zero marks the knob unset; any positive value is honoured
	if p.RetryBackoff == 0 {
		p.RetryBackoff = DefaultRetryBackoff
	}
	//swlint:ignore float-eq -- exactly zero marks the knob unset; any positive value is honoured
	if p.HeartbeatTimeout == 0 {
		p.HeartbeatTimeout = DefaultHeartbeatTimeout
	}
	return p
}

// Validate checks the plan for internal consistency.
func (p Plan) Validate() error {
	for _, c := range p.Crashes {
		if c.CG < 0 {
			return fmt.Errorf("fault: crash CG must be non-negative, got %d", c.CG)
		}
		if c.At < 0 || math.IsNaN(c.At) || math.IsInf(c.At, 0) {
			return fmt.Errorf("fault: crash time %v for CG %d is not a finite non-negative virtual time", c.At, c.CG)
		}
	}
	for _, r := range []struct {
		name string
		v    float64
	}{{"dma fail rate", p.DMAFailRate}, {"msg fail rate", p.MsgFailRate}} {
		if r.v < 0 || r.v > 1 || math.IsNaN(r.v) {
			return fmt.Errorf("fault: %s %v outside [0,1]", r.name, r.v)
		}
	}
	if p.MaxRetries < 0 {
		return fmt.Errorf("fault: max retries must be non-negative, got %d", p.MaxRetries)
	}
	if p.RetryBackoff < 0 || math.IsNaN(p.RetryBackoff) || math.IsInf(p.RetryBackoff, 0) {
		return fmt.Errorf("fault: retry backoff %v must be finite and non-negative", p.RetryBackoff)
	}
	if p.HeartbeatTimeout < 0 || math.IsNaN(p.HeartbeatTimeout) || math.IsInf(p.HeartbeatTimeout, 0) {
		return fmt.Errorf("fault: heartbeat timeout %v must be finite and non-negative", p.HeartbeatTimeout)
	}
	for _, l := range p.Links {
		if l.FromCG < -1 || l.ToCG < -1 {
			return fmt.Errorf("fault: link endpoints (%d,%d) must be CG indexes or -1", l.FromCG, l.ToCG)
		}
		if !(l.From < l.To) || l.From < 0 || math.IsNaN(l.From) || math.IsNaN(l.To) {
			return fmt.Errorf("fault: link window [%v,%v) is not a valid virtual-time range", l.From, l.To)
		}
		if l.Factor < 1 || math.IsNaN(l.Factor) || math.IsInf(l.Factor, 0) {
			return fmt.Errorf("fault: link degradation factor %v must be finite and at least 1", l.Factor)
		}
	}
	for _, s := range p.Stragglers {
		if s.CG < 0 {
			return fmt.Errorf("fault: straggler CG must be non-negative, got %d", s.CG)
		}
		if s.CPE < -1 || s.CPE >= machine.CPEsPerCG {
			return fmt.Errorf("fault: straggler CPE must be an index in [0,%d) or -1, got %d", machine.CPEsPerCG, s.CPE)
		}
		if s.Factor < 1 || math.IsNaN(s.Factor) || math.IsInf(s.Factor, 0) {
			return fmt.Errorf("fault: straggler factor %v must be finite and at least 1", s.Factor)
		}
	}
	return nil
}

// CheckUnits rejects a plan that names a core group a machine of cgs
// CGs lacks: a crash, a straggler or a link endpoint other than the -1
// wildcard (Validate rejects negative units).
func (p Plan) CheckUnits(cgs int) error {
	check := func(what string, cg int) error {
		if cg >= cgs {
			return fmt.Errorf("fault plan's %s names CG %d, but the machine has CGs [0,%d)", what, cg, cgs)
		}
		return nil
	}
	for _, c := range p.Crashes {
		if err := check("crash", c.CG); err != nil {
			return err
		}
	}
	for _, s := range p.Stragglers {
		if err := check("straggler", s.CG); err != nil {
			return err
		}
	}
	for _, l := range p.Links {
		if err := check("link", max(l.FromCG, l.ToCG)); err != nil {
			return err
		}
	}
	return nil
}

// ErrLinkFailed marks a message transmission that exhausted its
// retries.
var ErrLinkFailed = errors.New("fault: message transmission failed permanently")

// Injector answers the simulated substrates' fault queries. It is
// immutable after construction and safe for concurrent use by every
// rank and CPE goroutine of a job.
type Injector struct {
	plan     Plan
	crashAt  map[int]float64 // CG -> earliest scheduled crash time
	slowCG   map[int]float64 // CG -> whole-CG straggler factor
	compute  map[int]float64 // CG -> compute factor, slowest CPE included
	haveLink bool
}

// NewInjector validates and compiles a plan.
func NewInjector(p Plan) (*Injector, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	p = p.withDefaults()
	inj := &Injector{
		plan:     p,
		crashAt:  make(map[int]float64, len(p.Crashes)),
		slowCG:   make(map[int]float64),
		compute:  make(map[int]float64),
		haveLink: len(p.Links) > 0,
	}
	for _, c := range p.Crashes {
		if at, ok := inj.crashAt[c.CG]; !ok || c.At < at {
			inj.crashAt[c.CG] = c.At
		}
	}
	slowCPE := make(map[int]float64) // CG -> its slowest CPE's factor
	for _, s := range p.Stragglers {
		if s.CPE < 0 {
			inj.slowCG[s.CG] = max(inj.slowCG[s.CG], s.Factor)
		} else {
			slowCPE[s.CG] = max(slowCPE[s.CG], s.Factor)
		}
	}
	for _, s := range p.Stragglers {
		inj.compute[s.CG] = max(inj.slowCG[s.CG], 1) * max(slowCPE[s.CG], 1)
	}
	return inj, nil
}

// MustInjector is NewInjector that panics on error.
func MustInjector(p Plan) *Injector {
	inj, err := NewInjector(p)
	if err != nil {
		panic(err)
	}
	return inj
}

// CrashTime returns the scheduled crash time of a core group and
// whether one exists.
func (inj *Injector) CrashTime(cg int) (float64, bool) {
	at, ok := inj.crashAt[cg]
	return at, ok
}

// CrashedCGs returns the sorted CG indexes with scheduled crashes.
func (inj *Injector) CrashedCGs() []int {
	out := make([]int, 0, len(inj.crashAt))
	for cg := range inj.crashAt {
		out = append(out, cg)
	}
	sort.Ints(out)
	return out
}

// MaxRetries returns the retry budget for transient faults.
func (inj *Injector) MaxRetries() int { return inj.plan.MaxRetries }

// HeartbeatTimeout returns the virtual-time failure-detection latency.
func (inj *Injector) HeartbeatTimeout() float64 { return inj.plan.HeartbeatTimeout }

// Backoff returns the virtual backoff charged before retry attempt
// (1-based attempt numbering: the first retry is attempt 1), doubling
// per attempt.
func (inj *Injector) Backoff(attempt int) float64 {
	b := inj.plan.RetryBackoff
	for i := 1; i < attempt; i++ {
		b *= 2
	}
	return b
}

// DMAFault reports whether DMA transfer attempt (0-based) of elems
// elements issued by cg at virtual time `at` fails transiently. The
// decision is a pure hash of the plan seed and the arguments.
func (inj *Injector) DMAFault(cg int, at float64, elems, attempt int) bool {
	return inj.roll(inj.plan.DMAFailRate,
		0xD3A, uint64(cg), math.Float64bits(at), uint64(elems), uint64(attempt))
}

// DMARetryCount folds the per-transfer DMA fault decisions of a batch
// of `transfers` transfers (as the closed-form engines charge them)
// into the deterministic total number of retries, honouring the retry
// budget per transfer: a transfer that exhausts its budget is charged
// the budget, and the run goes on.
func (inj *Injector) DMARetryCount(cg int, at float64, elems, transfers int) (retries int) {
	//swlint:ignore float-eq -- a rate of exactly zero (the unset sentinel) skips the per-transfer fold
	if inj.plan.DMAFailRate == 0 {
		return 0
	}
	for t := 0; t < transfers; t++ {
		for attempt := 0; attempt < inj.plan.MaxRetries && inj.DMAFault(cg, at, elems+t, attempt); attempt++ {
			retries++
		}
	}
	return retries
}

// MsgFault reports whether transmission attempt (0-based) of the
// message (srcCG -> dstCG, tag) issued at virtual time `at` fails
// transiently.
func (inj *Injector) MsgFault(srcCG, dstCG int, tag uint64, at float64, attempt int) bool {
	return inj.roll(inj.plan.MsgFailRate,
		0x4E7, uint64(srcCG), uint64(dstCG), tag, math.Float64bits(at), uint64(attempt))
}

// LinkFactor returns the transfer-time multiplier for a message
// between srcCG and dstCG at virtual time `at`: the product of every
// matching degradation window (1 when the link is clean). It
// implements netmodel.Degrader.
func (inj *Injector) LinkFactor(srcCG, dstCG int, at float64) float64 {
	if !inj.haveLink {
		return 1
	}
	f := 1.0
	for _, l := range inj.plan.Links {
		if at < l.From || at >= l.To {
			continue
		}
		if linkMatches(l, srcCG, dstCG) {
			f *= l.Factor
		}
	}
	return f
}

// linkMatches reports whether the degradation covers the (unordered)
// CG pair, honouring -1 wildcards.
func linkMatches(l LinkDegrade, a, b int) bool {
	end := func(want, got int) bool { return want == -1 || want == got }
	return (end(l.FromCG, a) && end(l.ToCG, b)) || (end(l.FromCG, b) && end(l.ToCG, a))
}

// CGFactor returns the whole-CG straggler factor of core group cg,
// ignoring its CPE stragglers (1 when it has none).
func (inj *Injector) CGFactor(cg int) float64 {
	if s, ok := inj.slowCG[cg]; ok {
		return s
	}
	return 1
}

// ComputeFactor returns the compute-time multiplier of core group cg:
// its whole-CG factor times the largest factor among its CPEs, since
// the CG's compute phase ends with its slowest CPE. It is exactly 1
// for a CG without a straggler.
func (inj *Injector) ComputeFactor(cg int) float64 {
	if f, ok := inj.compute[cg]; ok {
		return f
	}
	return 1
}

// roll draws the deterministic decision for one fault opportunity:
// hash the seed with the discriminating parts and compare the uniform
// [0,1) value against the rate.
func (inj *Injector) roll(rate float64, parts ...uint64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	h := inj.plan.Seed ^ 0x9e3779b97f4a7c15
	for _, p := range parts {
		h = mix(h, p)
	}
	return float64(h>>11)/(1<<53) < rate
}

// mix folds b into the running hash a, splitmix64-style.
func mix(a, b uint64) uint64 {
	x := a ^ (b+0x9e3779b97f4a7c15+(a<<6)+(a>>2))*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0x94d049bb133111eb
	x ^= x >> 27
	return x
}
