// Package lint implements relaxlint, a stdlib-only static analyzer
// that enforces the repository's two load-bearing disciplines: the
// model layer (automata, lattices, specs, histories, quorum logic)
// must be deterministic and pure so that the bounded model checking of
// Theorem 4 and the paper artifacts is reproducible run-to-run, and
// the operational layer (transactions, cluster simulation, commit
// protocols) must follow a strict locking discipline so the
// concurrency results are trustworthy.
//
// Four rule families are implemented:
//
//   - determinism (det-time, det-rand, det-maporder): model-layer
//     packages must not read the wall clock, use the global RNG, or
//     let map iteration order escape into slices/returns unsorted.
//   - lock discipline (lock-balance, lock-guard): a mutex Lock must be
//     released on every path, and fields annotated "guarded by <mu>"
//     must only be touched by methods that acquire <mu>.
//   - error discipline (err-drop): error results must not be discarded
//     with a blank identifier outside _test.go files.
//   - spec purity (spec-purity): functions in the specification
//     catalog must not write package-level state.
//
// Any finding can be suppressed with a comment on the same line or
// the line above:
//
//	//lint:ignore <pass>[,<pass>...] <reason>
//
// The pass name must be one of the rule names above and the reason is
// mandatory; a missing reason or an unknown pass name is itself
// reported (bad-ignore), and a directive that suppresses nothing is
// reported too (unused-ignore) so stale suppressions cannot linger.
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
var knownRules = map[string]bool{
	"det-time":     true,
	"det-rand":     true,
	"det-maporder": true,
	"lock-balance": true,
	"lock-guard":   true,
	"err-drop":     true,
	"spec-purity":  true,
}

// KnownRules returns the suppressible pass names, sorted.
func KnownRules() []string {
	out := make([]string, 0, len(knownRules))
	for r := range knownRules {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// Config selects which packages the path-scoped rule families apply
// to. Paths are import-path suffixes (matched on "/" boundaries), so
// the defaults apply equally to this module and to fixture modules
// that mirror its layout.
type Config struct {
	// ModelPaths are the packages held to the determinism rules
	// (det-time, det-rand, det-maporder).
	ModelPaths []string
	// SpecPaths are the packages held to the spec-purity rule.
	SpecPaths []string
}

// DefaultConfig returns the repository's rule scoping: the eleven
// model-layer packages (including the observability substrate and its
// causal span tracer, whose logical-clock journal and span IDs must
// themselves stay wall-clock-free; the
// resilience layer, whose retry timing and jitter must come from the
// simulated clock and injected RNG alone; the online relaxation
// checker, whose verdicts certify byte-identical soak replays; and the
// cluster package, whose protocol engine the networked runtime also
// executes and must therefore be deterministic given its site access)
// and the specification catalog.
//
// internal/conc is deliberately absent: it is the runtime concurrency
// layer — lock-free structures whose schedules are inherently
// nondeterministic and whose guarantees are certified after the fact
// by relaxcheck over recorded histories, not pinned by lint. Its
// per-shard sampling state is seeded only so single-threaded witness
// schedules replay; holding it to det-time/det-rand would outlaw the
// very nondeterminism the lattice exists to classify. The
// path-unscoped families (lock discipline, error discipline) still
// apply to it in full.
//
// internal/relaxd is absent for the same reason: it is the networked
// runtime — real sockets, real deadlines, real fsyncs — whose
// correctness is held to the deterministic cluster by differential
// tests and to the lattice by the online checker, not by determinism
// lint. Lock and error discipline apply to it in full.
func DefaultConfig() Config {
	return Config{
		ModelPaths: []string{
			"internal/automaton",
			"internal/lattice",
			"internal/specs",
			"internal/core",
			"internal/history",
			"internal/quorum",
			"internal/obs",
			"internal/obs/trace",
			"internal/resilience",
			"internal/relaxcheck",
			"internal/cluster",
		},
		SpecPaths: []string{"internal/specs"},
	}
}

// reportFunc receives raw findings from the rule implementations.
type reportFunc func(pos token.Pos, rule, msg string)

// Run loads every package of the module rooted at root, applies the
// rules to packages matched by patterns ("./..." style, relative to
// root), filters suppressed findings, and returns the remainder
// sorted by position.
func Run(root string, cfg Config, patterns []string) ([]Diagnostic, error) {
	pkgs, err := Load(root)
	if err != nil {
		return nil, err
	}
	return RunPackages(pkgs, cfg, patterns)
}

// RunPackages applies the rules to already-loaded packages (see Load).
// Splitting loading from analysis lets the test suite typecheck a
// module once and run many analyses over it.
func RunPackages(pkgs []*Package, cfg Config, patterns []string) ([]Diagnostic, error) {
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
		checkDeterminism(p, cfg, report)
		checkLocks(p, report)
		checkErrDiscipline(p, report)
		checkSpecPurity(p, cfg, report)
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

// pathMatches reports whether an import path ends with one of the
// configured suffixes on a path-segment boundary.
func pathMatches(pkgPath string, suffixes []string) bool {
	for _, s := range suffixes {
		if pkgPath == s || strings.HasSuffix(pkgPath, "/"+s) {
			return true
		}
	}
	return false
}
