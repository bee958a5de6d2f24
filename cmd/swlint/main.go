// Command swlint runs the project's static-analysis pass over the
// module. It enforces the simulator's paper-level invariants that the
// compiler cannot see; see docs/STATIC_ANALYSIS.md for the rule
// catalogue and the suppression syntax.
//
// Usage:
//
//	go run ./cmd/swlint ./...
//	go run ./cmd/swlint ./internal/mpi ./internal/vclock
//	go run ./cmd/swlint -format sarif ./... > swlint.sarif
//	go run ./cmd/swlint -fix ./...
//	go run ./cmd/swlint -stats ./...
//	go run ./cmd/swlint -list
//
// A finding is accepted only inline, with //swlint:ignore at the
// offending line; every run analyzes the packages afresh.
//
// Exit status: 0 when clean, 1 when findings were reported, 2 on
// load or usage errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("swlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the rules and exit")
	format := fs.String("format", "text", "output format: text or sarif")
	fix := fs.Bool("fix", false, "apply available mechanical fixes, then report what remains")
	stats := fs.Bool("stats", false, "print the package count, per-rule finding counts and the suppression census to stderr")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: swlint [flags] <package patterns>")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *format != "text" && *format != "sarif" {
		fmt.Fprintf(stderr, "swlint: unknown format %q (want text or sarif)\n", *format)
		return 2
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "swlint:", err)
		return 2
	}
	cfg, err := lint.DefaultConfig(cwd)
	if err != nil {
		fmt.Fprintln(stderr, "swlint:", err)
		return 2
	}

	if *list {
		for _, r := range lint.AllRules(cfg) {
			fmt.Fprintf(stdout, "%-18s %s\n", r.ID(), r.Doc())
		}
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		fs.Usage()
		return 2
	}

	// The suppression census in runStats feeds the SARIF run
	// properties whether or not -stats prints it.
	findings, runStats, err := lint.Run(cfg, patterns)
	if err != nil {
		fmt.Fprintln(stderr, "swlint:", err)
		return 2
	}

	if *fix {
		changed, applied, err := lint.ApplyFixes(findings)
		if err != nil {
			fmt.Fprintln(stderr, "swlint:", err)
			return 2
		}
		for _, name := range changed {
			fmt.Fprintf(stderr, "swlint: fixed %s\n", name)
		}
		if len(changed) > 0 {
			fmt.Fprintf(stderr, "swlint: applied %d fix(es) across %d file(s)\n", len(applied), len(changed))
			// Rewritten files invalidate this run's findings and the
			// packages its loader type-checked; re-analyze from a
			// fresh loader to report what the fixes did not cover.
			findings, runStats, err = lint.Run(cfg, patterns)
			if err != nil {
				fmt.Fprintln(stderr, "swlint:", err)
				return 2
			}
		}
	}

	if *format == "sarif" {
		if err := lint.WriteSARIF(stdout, findings, lint.AllRules(cfg), cfg.ModuleRoot, runStats.Suppressions); err != nil {
			fmt.Fprintln(stderr, "swlint:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}
	if *stats {
		printStats(stderr, runStats, findings)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "swlint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// printStats reports the run's shape: how many packages were analyzed,
// the per-rule finding counts, and the suppression census — which
// rules are most often //swlint:ignore'd module-wide, largest debt
// first.
func printStats(w io.Writer, s lint.RunStats, findings []lint.Finding) {
	fmt.Fprintf(w, "swlint: stats: %d package(s) analyzed\n", s.Packages)
	counts := make(map[string]int)
	for _, f := range findings {
		counts[f.RuleID]++
	}
	ids := make([]string, 0, len(counts))
	for id := range counts {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Fprintf(w, "swlint: stats: %-18s %d\n", id, counts[id])
	}
	total := 0
	for _, n := range s.Suppressions {
		total += n
	}
	fmt.Fprintf(w, "swlint: stats: %d suppression(s) module-wide\n", total)
	if total > 0 {
		type row struct {
			rule string
			n    int
		}
		rows := make([]row, 0, len(s.Suppressions))
		for rule, n := range s.Suppressions {
			rows = append(rows, row{rule, n})
		}
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].n != rows[j].n {
				return rows[i].n > rows[j].n
			}
			return rows[i].rule < rows[j].rule
		})
		fmt.Fprintln(w, "swlint: stats: top suppressed rules:")
		for _, r := range rows {
			fmt.Fprintf(w, "swlint: stats:   %-18s %d\n", r.rule, r.n)
		}
	}
}
