// Package lint is the repository's stdlib-only static analyzer, with
// one pass, err-drop: an error result must not be discarded with
// a blank identifier outside _test.go files. A discarded error hides
// exactly the degraded-mode failures this codebase exists to study.
// The pass runs over the whole module in `go test ./...`
// (TestRepairedTreeIsClean), so a finding fails the tier-1 tests.
//
// Determinism and lock discipline are not checked here. The replay
// tests and CI's GOMAXPROCS 2-vs-8 cmp of every artifact check that
// runs reproduce, and -race checks the locking; see DESIGN.md §8.
//
// A finding can be suppressed with a comment on the same line or the
// line above:
//
//	//lint:ignore <pass> <reason>
//
// The pass name must be a known rule and the reason is mandatory; a
// missing reason or an unknown pass name is itself reported
// (bad-ignore), and a directive that suppresses nothing is reported
// too (unused-ignore) so stale suppressions cannot linger.
package lint

import (
	"fmt"
	"go/token"
	"sort"
)

// Diagnostic is one finding, positioned relative to the module root.
type Diagnostic struct {
	File    string
	Line    int
	Col     int
	Rule    string
	Message string
}

// String renders the finding in the canonical file:line:col: [rule]
// message format.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Rule, d.Message)
}

// knownRules is the set of pass names a //lint:ignore directive may
// suppress. The meta diagnostics bad-ignore and unused-ignore are
// deliberately absent: suppression machinery cannot suppress itself.
var knownRules = map[string]bool{"err-drop": true}

// KnownRules returns the suppressible pass names, sorted.
func KnownRules() []string {
	out := make([]string, 0, len(knownRules))
	for r := range knownRules {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// reportFunc receives raw findings from the rule implementations.
type reportFunc func(pos token.Pos, rule, msg string)

// RunPackages applies the pass to already-loaded packages (see Load),
// filters suppressed findings, and returns the remainder sorted by
// position.
func RunPackages(pkgs []*Package) []Diagnostic {
	if len(pkgs) == 0 {
		return nil
	}
	fset := pkgs[0].Fset
	var diags []Diagnostic
	report := func(pos token.Pos, rule, msg string) {
		position := fset.Position(pos)
		diags = append(diags, Diagnostic{
			File:    position.Filename,
			Line:    position.Line,
			Col:     position.Column,
			Rule:    rule,
			Message: msg,
		})
	}
	for _, p := range pkgs {
		checkErrDiscipline(p, report)
	}

	idx := collectIgnores(pkgs, report)
	diags = filterIgnored(diags, idx)
	diags = append(diags, unusedIgnores(idx)...)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
	return diags
}
