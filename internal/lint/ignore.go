package lint

import (
	"fmt"
	"strings"
)

// ignoreDirective is one //lint:ignore comment.
type ignoreDirective struct {
	file string
	line int
	col  int
	rule string
	used bool
}

// ignoreIndex indexes directives by file and line for filtering, and
// keeps the flat list for unused-ignore reporting.
type ignoreIndex struct {
	byLine map[string]map[int][]*ignoreDirective
	all    []*ignoreDirective
}

// collectIgnores scans the matched packages' comments for the
// suppression convention
//
//	//lint:ignore <pass> <reason>
//
// and returns an index of suppressed (file, line, pass) triples. The
// comment suppresses matching findings on its own line and on the
// line directly below it, so both trailing and preceding placement
// work. Two malformations are reported as bad-ignore — a missing
// reason (the reason is the audit trail that makes suppressions
// reviewable) and a pass name that is not a known rule (which would
// otherwise suppress nothing, silently). Wildcards are deliberately
// not supported: every suppression names the pass it silences.
func collectIgnores(pkgs []*Package, report reportFunc) *ignoreIndex {
	idx := &ignoreIndex{byLine: map[string]map[int][]*ignoreDirective{}}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					rest, ok := strings.CutPrefix(text, "lint:ignore")
					if !ok {
						continue
					}
					fields := strings.Fields(rest)
					if len(fields) < 2 {
						report(c.Pos(), "bad-ignore",
							`malformed suppression: want "//lint:ignore <pass> <reason>"`)
						continue
					}
					rule := fields[0]
					if !knownRules[rule] {
						report(c.Pos(), "bad-ignore", fmt.Sprintf(
							"unknown pass %q in suppression; known passes: %s",
							rule, strings.Join(KnownRules(), ", ")))
						continue
					}
					pos := p.Fset.Position(c.Pos())
					d := &ignoreDirective{file: pos.Filename, line: pos.Line, col: pos.Column, rule: rule}
					if idx.byLine[d.file] == nil {
						idx.byLine[d.file] = map[int][]*ignoreDirective{}
					}
					idx.byLine[d.file][d.line] = append(idx.byLine[d.file][d.line], d)
					idx.all = append(idx.all, d)
				}
			}
		}
	}
	return idx
}

// filterIgnored drops diagnostics suppressed by an ignore comment on
// the same line or the line above, marking every matching directive
// used.
func filterIgnored(diags []Diagnostic, idx *ignoreIndex) []Diagnostic {
	if len(idx.all) == 0 {
		return diags
	}
	kept := diags[:0]
	for _, d := range diags {
		same := markIgnored(idx, d.File, d.Line, d.Rule)
		above := markIgnored(idx, d.File, d.Line-1, d.Rule)
		if same || above {
			continue
		}
		kept = append(kept, d)
	}
	return kept
}

// markIgnored reports whether rule is suppressed at file:line, marking
// each matching directive used.
func markIgnored(idx *ignoreIndex, file string, line int, rule string) bool {
	hit := false
	for _, d := range idx.byLine[file][line] {
		if d.rule == rule {
			d.used = true
			hit = true
		}
	}
	return hit
}

// unusedIgnores reports every directive that suppressed nothing: a
// stale suppression either outlived the finding it justified or names
// the wrong pass, and both deserve a loud failure rather than silent
// rot.
func unusedIgnores(idx *ignoreIndex) []Diagnostic {
	var out []Diagnostic
	for _, d := range idx.all {
		if d.used {
			continue
		}
		out = append(out, Diagnostic{
			File: d.file,
			Line: d.line,
			Col:  d.col,
			Rule: "unused-ignore",
			Message: fmt.Sprintf(
				"//lint:ignore %s suppresses no finding; delete the directive or fix the pass name", d.rule),
		})
	}
	return out
}
