// Command obsdiff compares two observability exports of the
// simulator — aggregate profiles (-profile-out) or JSONL metrics logs
// (-metrics-out) — and reports per-phase deltas per unit class. The
// exit code is the verdict, so CI can gate on it:
//
//	0  no row changed beyond -threshold
//	1  at least one row did
//	2  usage or unreadable/unparsable input
//
// Usage:
//
//	obsdiff old.profile.json new.profile.json
//	obsdiff -threshold 0.05 old.metrics.jsonl new.metrics.jsonl
//
// The two sides may mix formats (a profile against a metrics log):
// both normalize to per-(unit class, phase) virtual seconds plus a
// whole-run total. A zero-delta comparison prints nothing but the
// hidden-row summary — the shape `make obscheck` asserts on.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/profdiff"
)

func run(stdout, stderr io.Writer, args []string) int {
	fs := flag.NewFlagSet("obsdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	threshold := fs.Float64("threshold", 0, "relative change (fraction, e.g. 0.05 = 5%) a row must exceed to fail the diff")
	all := fs.Bool("all", false, "print identical rows too, not just changed ones")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: obsdiff [-threshold frac] [-all] old new")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	if *threshold < 0 {
		fmt.Fprintln(stderr, "obsdiff: -threshold must be non-negative")
		return 2
	}
	old, err := profdiff.LoadObs(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "obsdiff:", err)
		return 2
	}
	new_, err := profdiff.LoadObs(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "obsdiff:", err)
		return 2
	}
	rows := profdiff.Diff(old, new_)
	if err := profdiff.Render(stdout, rows, !*all); err != nil {
		fmt.Fprintln(stderr, "obsdiff:", err)
		return 2
	}
	if changed := profdiff.Changed(rows, *threshold); len(changed) > 0 {
		fmt.Fprintf(stdout, "%d row(s) beyond threshold %g\n", len(changed), *threshold)
		return 1
	}
	fmt.Fprintf(stdout, "no deltas beyond threshold %g\n", *threshold)
	return 0
}

func main() {
	os.Exit(run(os.Stdout, os.Stderr, os.Args[1:]))
}
