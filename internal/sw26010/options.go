package sw26010

import "repro/internal/obs"

// Option configures a fine-grained CG run without widening the entry
// points' signatures for every unobserved caller.
type Option func(*runOpts)

type runOpts struct {
	rec *obs.Recorder
}

// WithObserver makes the run record spans on the recorder: one unit
// per CPE ("cpe/<i>", prefixed with "cg<pos>/" when several CGs run)
// carrying its dma, compute and regcomm phases, plus the MPI timeline
// of each managing processing element at Level 3. A nil recorder is a
// no-op.
func WithObserver(rec *obs.Recorder) Option {
	return func(o *runOpts) {
		o.rec = rec
	}
}

func applyOpts(opts []Option) runOpts {
	var o runOpts
	for _, fn := range opts {
		if fn != nil {
			fn(&o)
		}
	}
	return o
}
