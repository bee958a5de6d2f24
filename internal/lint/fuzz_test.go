package lint

import (
	"strings"
	"testing"
	"unicode"
)

// FuzzParseIgnore drives the suppression-comment parser with arbitrary
// text after the //swlint:ignore prefix and checks the contract every
// accepted comment must satisfy: at least one rule, no rule empty or
// containing whitespace, and a non-blank reason. The parser is the
// front door for untrusted source text, so a panic or an accepted
// malformed comment here would poison the suppression census and the
// unused-suppress bookkeeping.
func FuzzParseIgnore(f *testing.F) {
	for _, seed := range []string{
		"float-eq -- tolerance is intentional here",
		"float-eq,err-wrap -- both deliberate",
		"no-wallclock--reason",
		" -- reason only",
		"rule1 rule2 -- two fields is malformed",
		"float-eq --",
		"float-eq",
		"",
		",, -- empty rules",
		"a,b,c,d -- long comma list",
		"float-eq -- reason -- with separator inside",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, rest string) {
		rules, reason, ok := parseIgnore(rest)
		if !ok {
			if rules != nil || reason != "" {
				t.Fatalf("parseIgnore(%q) rejected but returned rules=%v reason=%q", rest, rules, reason)
			}
			return
		}
		if len(rules) == 0 {
			t.Fatalf("parseIgnore(%q) accepted with no rules", rest)
		}
		for _, r := range rules {
			if r == "" {
				t.Fatalf("parseIgnore(%q) returned an empty rule name", rest)
			}
			if strings.IndexFunc(r, unicode.IsSpace) >= 0 {
				t.Fatalf("parseIgnore(%q) returned rule %q containing whitespace", rest, r)
			}
		}
		if strings.TrimSpace(reason) != reason || reason == "" {
			t.Fatalf("parseIgnore(%q) returned untrimmed or blank reason %q", rest, reason)
		}
	})
}
