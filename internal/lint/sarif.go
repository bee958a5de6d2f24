package lint

import (
	"encoding/json"
	"io"
	"path/filepath"
	"strings"
)

// SARIF 2.1.0 export, the interchange format GitHub code scanning
// ingests (github/codeql-action/upload-sarif in CI turns the findings
// into PR annotations). The emitted document is the minimal valid
// subset: schema/version header, one run, a tool.driver carrying the
// full rule table, and one result per finding with a physical location
// relative to the module root (uriBaseId SRCROOT).

const (
	sarifSchema  = "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"
	sarifVersion = "2.1.0"
)

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool       sarifTool      `json:"tool"`
	Results    []sarifResult  `json:"results"`
	Properties *sarifRunProps `json:"properties,omitempty"`
}

// sarifRunProps is the run-level property bag. suppressions carries
// the per-rule //swlint:ignore counts of the run, so code scanning
// dashboards see the tolerated-debt surface alongside the findings.
type sarifRunProps struct {
	Suppressions map[string]int `json:"suppressions"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri"`
	Version        string      `json:"semanticVersion"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	RuleIndex int             `json:"ruleIndex"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI       string `json:"uri"`
	URIBaseID string `json:"uriBaseId"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// ToolVersion identifies the analyzer in SARIF output and keys the
// result cache; bump it whenever rule behavior changes so stale cache
// entries and code-scanning alert identities roll over together.
const ToolVersion = "5.0.0"

// WriteSARIF writes the findings as a SARIF 2.1.0 document. The rule
// table lists every rule of the run (findings or not), so code
// scanning can show rule metadata for closed alerts too. File URIs are
// slash-separated paths relative to the module root. suppressions,
// when non-nil, is the run's per-rule //swlint:ignore census, emitted
// into the run property bag.
func WriteSARIF(w io.Writer, findings []Finding, rules []Rule, moduleRoot string, suppressions map[string]int) error {
	ruleIndex := make(map[string]int, len(rules))
	table := make([]sarifRule, 0, len(rules))
	for _, r := range rules {
		ruleIndex[r.ID()] = len(table)
		table = append(table, sarifRule{ID: r.ID(), ShortDescription: sarifMessage{Text: r.Doc()}})
	}
	results := make([]sarifResult, 0, len(findings))
	for _, f := range findings {
		idx, ok := ruleIndex[f.RuleID]
		if !ok {
			idx = len(table)
			ruleIndex[f.RuleID] = idx
			table = append(table, sarifRule{ID: f.RuleID, ShortDescription: sarifMessage{Text: f.RuleID}})
		}
		level := "error"
		if f.RuleID == UnusedSuppressID {
			level = "warning"
		}
		results = append(results, sarifResult{
			RuleID:    f.RuleID,
			RuleIndex: idx,
			Level:     level,
			Message:   sarifMessage{Text: f.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{
						URI:       sarifURI(f.Pos.Filename, moduleRoot),
						URIBaseID: "%SRCROOT%",
					},
					Region: sarifRegion{StartLine: f.Pos.Line, StartColumn: f.Pos.Column},
				},
			}},
		})
	}
	var props *sarifRunProps
	if len(suppressions) > 0 {
		props = &sarifRunProps{Suppressions: suppressions}
	}
	doc := sarifLog{
		Schema:  sarifSchema,
		Version: sarifVersion,
		Runs: []sarifRun{{
			Tool: sarifTool{Driver: sarifDriver{
				Name:           "swlint",
				InformationURI: "docs/STATIC_ANALYSIS.md",
				Version:        ToolVersion,
				Rules:          table,
			}},
			Results:    results,
			Properties: props,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// sarifURI renders a finding path relative to the module root with
// forward slashes, as SARIF artifact locations require.
func sarifURI(filename, moduleRoot string) string {
	if moduleRoot != "" {
		if rel, err := filepath.Rel(moduleRoot, filename); err == nil && !strings.HasPrefix(rel, "..") {
			filename = rel
		}
	}
	return filepath.ToSlash(filename)
}
