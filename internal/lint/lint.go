// Package lint is the repository's stdlib-only static analyzer, with
// two passes over the module's non-test code:
//
//   - err-drop: an error result must not be discarded with a blank
//     identifier. A discarded error hides exactly the degraded-mode
//     failures this codebase exists to study.
//   - unreached: every top-level function and method must be reachable
//     from a binary. The roots are main of every main package, every
//     init, every package-level variable initialiser, and every function
//     kept by a //lint:ignore unreached directive (so a kept entry point
//     keeps its callees too). A use of a function, a method value or
//     expression, or a generic instance in a reached body reaches it. A
//     method is reached dynamically, in the manner of rapid type
//     analysis, when its type is converted to an interface in reached
//     code and its name is called through an interface there or by the
//     standard library (String, Error, sort.Interface, ...). Production
//     code is what a binary runs; a function only tests call is deleted,
//     moved into a _test.go file, or kept with a stated reason.
//
// Both passes run over the whole module in `go test ./...`
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
//
//lint:ignore unreached entry point: the rendering the lint tests print and compare
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Rule, d.Message)
}

// knownRules is the set of pass names a //lint:ignore directive may
// suppress. The meta diagnostics bad-ignore and unused-ignore are
// deliberately absent: suppression machinery cannot suppress itself.
var knownRules = map[string]bool{"err-drop": true, "unreached": true}

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
//
//lint:ignore unreached entry point: the lint tests run the passes, and no CLI does
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
	idx := collectIgnores(pkgs, report)
	for _, p := range pkgs {
		checkErrDiscipline(p, report)
	}
	checkUnreached(pkgs, idx, report)

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
