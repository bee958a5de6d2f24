package serve

import (
	"time"

	"repro/internal/fault"
)

// Chaos adapts a deterministic fault.Plan to the wall-clock serving
// topology. The plan syntax and seeding are exactly the simulator's
// (fault.ParsePlan, docs/FAULT_TOLERANCE.md); the units are remapped:
//
//	crash=0@T      kill the trainer T *wall-clock seconds* after start
//	               (units other than 0 are reserved and ignored; the
//	               supervisor restarts the trainer after its backoff)
//	slow=SxF       query shard S straggles: every scan of that stripe
//	               costs an extra (F-1) delay units
//	msg=RATE       each snapshot publish is dropped with probability
//	               RATE, decided by a pure hash of (seed, epoch) — the
//	               same plan drops the same epochs on every run
//	dma=RATE       transient per-request processing faults, decided by
//	               a pure hash of (seed, request sequence); the server
//	               absorbs them with one internal retry
//	link=A-B@T0:T1xF  degraded fabric: requests admitted inside the
//	               wall-clock window [T0,T1) seconds after start pay an
//	               extra (F-1) delay units (endpoints are matched
//	               against (0,1), so * windows always apply)
//
// Time-windowed items (crash, link) are wall-clock by nature; the
// per-event decisions (msg, dma) are keyed on discrete sequence
// numbers, so a given plan and seed produce the identical drop/fault
// pattern per epoch and per request ordinal on every run.
type Chaos struct {
	inj   *fault.Injector
	start time.Time
	// Unit is the base delay quantum straggler and link factors
	// multiply (default 500µs).
	Unit time.Duration
}

// DefaultDelayUnit is the base chaos delay quantum.
const DefaultDelayUnit = 500 * time.Microsecond

// NewChaos compiles a plan into a wall-clock adapter anchored at
// time.Now(). A nil *Chaos is valid everywhere and injects nothing.
func NewChaos(p fault.Plan) (*Chaos, error) {
	inj, err := fault.NewInjector(p)
	if err != nil {
		return nil, err
	}
	return &Chaos{inj: inj, start: time.Now(), Unit: DefaultDelayUnit}, nil
}

// elapsed returns the wall-clock seconds since the adapter was armed.
func (c *Chaos) elapsed() float64 { return time.Since(c.start).Seconds() }

// TrainerCrashes returns the scheduled wall-clock crash offsets of the
// trainer (unit 0), ascending. The caller fires each at most once.
func (c *Chaos) TrainerCrashes() []float64 {
	if c == nil {
		return nil
	}
	var out []float64
	for _, cg := range c.inj.CrashedCGs() {
		if cg != 0 {
			continue // units other than the trainer are reserved
		}
		at, _ := c.inj.CrashTime(cg)
		out = append(out, at)
	}
	return out
}

// TrainerCrashDue reports whether a scheduled trainer crash with
// ordinal >= fired has come due, given the wall clock.
func (c *Chaos) TrainerCrashDue(fired int) bool {
	if c == nil {
		return false
	}
	crashes := c.TrainerCrashes()
	return fired < len(crashes) && c.elapsed() >= crashes[fired]
}

// ShardDelay returns the injected extra latency for one scan of query
// shard s: (factor-1) delay units for a straggling stripe, zero
// otherwise.
func (c *Chaos) ShardDelay(s int) time.Duration {
	if c == nil {
		return 0
	}
	f := c.inj.CGFactor(s)
	if f <= 1 {
		return 0
	}
	return time.Duration(float64(c.Unit) * (f - 1))
}

// LinkDelay returns the injected extra latency a request admitted now
// pays for degraded-fabric windows covering the current wall-clock
// offset.
func (c *Chaos) LinkDelay() time.Duration {
	if c == nil {
		return 0
	}
	f := c.inj.LinkFactor(0, 1, c.elapsed())
	if f <= 1 {
		return 0
	}
	return time.Duration(float64(c.Unit) * (f - 1))
}

// DropPublish reports whether the publish of the given epoch is
// dropped. The decision is a pure function of the plan seed and the
// epoch number.
func (c *Chaos) DropPublish(epoch uint64) bool {
	if c == nil {
		return false
	}
	return c.inj.MsgFault(0, 1, epoch, 0, 0)
}

// RequestFault reports whether request ordinal seq suffers a transient
// processing fault (absorbed by one server-side retry). Pure in the
// seed and the sequence number.
func (c *Chaos) RequestFault(seq uint64) bool {
	if c == nil {
		return false
	}
	return c.inj.DMAFault(0, 0, int(seq%(1<<31)), 0)
}
