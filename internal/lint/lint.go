// Package lint implements relaxlint, a stdlib-only static analyzer
// with one pass, err-drop: an error result must not be discarded with
// a blank identifier outside _test.go files. A discarded error hides
// exactly the degraded-mode failures this codebase exists to study.
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
	"strings"
)

// Diagnostic is one finding, positioned relative to the module root.
type Diagnostic struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
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

// Run loads every package of the module rooted at root, applies the
// pass to packages matched by patterns ("./..." style, relative to
// root), filters suppressed findings, and returns the remainder
// sorted by position.
func Run(root string, patterns []string) ([]Diagnostic, error) {
	pkgs, err := Load(root)
	if err != nil {
		return nil, err
	}
	return RunPackages(pkgs, patterns)
}

// RunPackages applies the rules to already-loaded packages (see Load).
// Splitting loading from analysis lets the test suite typecheck a
// module once and run many analyses over it.
func RunPackages(pkgs []*Package, patterns []string) ([]Diagnostic, error) {
	var matched []*Package
	for _, p := range pkgs {
		if matchPattern(p.RelDir, patterns) {
			matched = append(matched, p)
		}
	}
	// A pattern that selects nothing is almost always a typo; failing
	// loudly keeps a mistyped CI invocation from passing vacuously.
	if len(matched) == 0 {
		return nil, fmt.Errorf("no packages match %s", strings.Join(patterns, " "))
	}
	fset := matched[0].Fset
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
	for _, p := range matched {
		checkErrDiscipline(p, report)
	}

	idx := collectIgnores(matched, report)
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
	return diags, nil
}

// matchPattern reports whether a package directory (relative to the
// module root, "." for the root package) is selected by any pattern.
// Supported forms: "./...", "dir/...", "dir", and "." — with or
// without a leading "./".
func matchPattern(rel string, patterns []string) bool {
	for _, pat := range patterns {
		pat = strings.TrimPrefix(pat, "./")
		pat = strings.TrimSuffix(pat, "/")
		switch {
		case pat == "..." || pat == "":
			return true
		case strings.HasSuffix(pat, "/..."):
			prefix := strings.TrimSuffix(pat, "/...")
			if rel == prefix || strings.HasPrefix(rel, prefix+"/") {
				return true
			}
		case rel == pat:
			return true
		}
	}
	return false
}
