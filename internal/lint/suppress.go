package lint

import (
	"go/token"
	"strings"
)

// ignorePrefix introduces a suppression comment:
//
//	//swlint:ignore <rule>[,<rule>...] -- <reason>
//
// The rule list and the reason are both mandatory: a suppression is a
// claim that a specific rule's invariant holds here for a reason the
// analysis cannot see, and the reason is the reviewable part of that
// claim. The comment suppresses the listed rules on its own line and
// on the line directly below, so both trailing and preceding placement
// work:
//
//	if a == b { ... }            //swlint:ignore float-eq -- exact tie-break
//
//	//swlint:ignore float-eq -- exact tie-break
//	if a == b { ... }
//
// A malformed suppression (missing rule list, missing the " -- "
// separator, or an empty reason) suppresses nothing and is itself
// reported as a bad-suppress finding, and so is one that names a rule
// outside the catalogue (a misspelled or retired ID), on every run. A
// well-formed suppression that matched no finding of its rules is
// reported as unused-suppress, so stale ignores cannot silently
// accumulate.
const ignorePrefix = "swlint:ignore"

// BadSuppressID and UnusedSuppressID are the pseudo-rules the
// suppression machinery itself reports. They cannot be suppressed.
const (
	BadSuppressID    = "bad-suppress"
	UnusedSuppressID = "unused-suppress"
)

// knownRules is the catalogue a suppression may name: the IDs of the
// rule set AllRules builds.
var knownRules = func() map[string]bool {
	ids := make(map[string]bool)
	for _, r := range allRules(Config{}, nil) {
		ids[r.ID()] = true
	}
	return ids
}()

// suppression is one parsed ignore comment entry: one rule at one
// line, with its use count.
type suppression struct {
	rule string
	pos  token.Position
	used int
}

// suppressions indexes the ignore comments of one package by file and
// line.
type suppressions struct {
	// byLine maps filename -> line -> entries declared at that line.
	byLine map[string]map[int][]*suppression
	// bad collects the bad-suppress findings.
	bad []Finding
}

func newSuppressions(p *Package) *suppressions {
	s := &suppressions{byLine: make(map[string]map[int][]*suppression)}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				rest, ok := strings.CutPrefix(text, ignorePrefix)
				if !ok {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				rules, _, ok := parseIgnore(rest)
				if !ok {
					s.bad = append(s.bad, Finding{
						RuleID: BadSuppressID,
						Pos:    pos,
						Message: "malformed suppression; the form is " +
							"//swlint:ignore <rule>[,<rule>...] -- <reason> (rule list and reason are mandatory)",
					})
					continue
				}
				var unknown []string
				for _, r := range rules {
					if !knownRules[r] {
						unknown = append(unknown, r)
					}
				}
				if len(unknown) > 0 {
					s.bad = append(s.bad, Finding{
						RuleID: BadSuppressID,
						Pos:    pos,
						Message: "suppression names unknown rule " + strings.Join(unknown, ", ") +
							" and suppresses nothing; fix the ID (swlint -list prints the catalogue)",
					})
					continue
				}
				s.add(pos, rules)
			}
		}
	}
	return s
}

// parseIgnore splits the text after the prefix into rule IDs and the
// mandatory reason.
func parseIgnore(rest string) (rules []string, reason string, ok bool) {
	rest = strings.TrimSpace(rest)
	ruleList, reason, found := strings.Cut(rest, "--")
	if !found {
		return nil, "", false
	}
	reason = strings.TrimSpace(reason)
	fields := strings.Fields(ruleList)
	if reason == "" || len(fields) != 1 {
		return nil, "", false
	}
	for _, r := range strings.Split(fields[0], ",") {
		r = strings.TrimSpace(r)
		if r == "" {
			return nil, "", false
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, "", false
	}
	return rules, reason, true
}

func (s *suppressions) add(pos token.Position, rules []string) {
	lines := s.byLine[pos.Filename]
	if lines == nil {
		lines = make(map[int][]*suppression)
		s.byLine[pos.Filename] = lines
	}
	for _, r := range rules {
		lines[pos.Line] = append(lines[pos.Line], &suppression{rule: r, pos: pos})
	}
}

// suppressed reports whether the finding is covered by an ignore
// comment on its own line or the line above, and counts the use.
func (s *suppressions) suppressed(f Finding) bool {
	lines := s.byLine[f.Pos.Filename]
	if lines == nil {
		return false
	}
	for _, line := range [2]int{f.Pos.Line, f.Pos.Line - 1} {
		for _, sup := range lines[line] {
			if sup.rule == f.RuleID {
				sup.used++
				return true
			}
		}
	}
	return false
}

// counts returns the per-rule census of well-formed suppression
// entries in the package (a multi-rule comment counts once per rule it
// names). This is the -stats / SARIF suppression report's raw data:
// every count is a finding someone chose to tolerate, and the census
// makes that debt visible module-wide.
func (s *suppressions) counts() map[string]int {
	out := make(map[string]int)
	for _, lines := range s.byLine {
		for _, sups := range lines {
			for _, sup := range sups {
				out[sup.rule]++
			}
		}
	}
	return out
}

// report emits the machinery's own findings: every malformed comment
// or unknown rule ID, and every well-formed suppression for a rule in
// scope that matched nothing. Suppressions naming catalogued rules
// outside the run's rule set are left alone so a partial rule run does
// not misreport them as stale.
func (s *suppressions) report(ranRules map[string]bool) []Finding {
	out := append([]Finding(nil), s.bad...)
	for _, lines := range s.byLine {
		for _, sups := range lines {
			for _, sup := range sups {
				if sup.used > 0 || !ranRules[sup.rule] {
					continue
				}
				out = append(out, Finding{
					RuleID: UnusedSuppressID,
					Pos:    sup.pos,
					Message: "suppression for " + sup.rule +
						" matched no finding; delete the stale comment or fix the rule ID",
				})
			}
		}
	}
	return out
}
