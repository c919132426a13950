package lint

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// fixtureRoot is the self-contained mini-module of deliberately
// violating packages (and one clean one) under testdata.
var fixtureRoot = filepath.Join("testdata", "src")

// Loading a module with the source importer typechecks its entire
// dependency closure, which dominates this package's test time — so
// the fixture tree and the repository root are each loaded exactly
// once and shared across tests (RunPackages does not mutate them).
var (
	loadOnce = map[string]*sync.Once{
		fixtureRoot:               new(sync.Once),
		filepath.Join("..", ".."): new(sync.Once),
	}
	loadPkgs = map[string][]*Package{}
	loadErr  = map[string]error{}
	loadMu   sync.Mutex
)

func loadCached(t *testing.T, root string) []*Package {
	t.Helper()
	loadMu.Lock()
	once := loadOnce[root]
	loadMu.Unlock()
	once.Do(func() {
		pkgs, err := Load(root)
		loadMu.Lock()
		loadPkgs[root], loadErr[root] = pkgs, err
		loadMu.Unlock()
	})
	loadMu.Lock()
	defer loadMu.Unlock()
	if loadErr[root] != nil {
		t.Fatalf("Load(%s): %v", root, loadErr[root])
	}
	return loadPkgs[root]
}

func fixturePackages(t *testing.T) []*Package { return loadCached(t, fixtureRoot) }

func repoPackages(t *testing.T) []*Package {
	return loadCached(t, filepath.Join("..", ".."))
}

// golden is the exact finding set over the fixture tree: every rule
// family fires, suppressed sites stay silent, and the clean package
// contributes nothing.
var golden = []string{
	"errs/errs.go:16:2: [err-drop] error result discarded; handle it or annotate //lint:ignore err-drop <reason>",
	"errs/errs.go:17:5: [err-drop] error result discarded; handle it or annotate //lint:ignore err-drop <reason>",
	"errs/errs.go:18:5: [err-drop] error result discarded; handle it or annotate //lint:ignore err-drop <reason>",
	`errs/errs.go:46:2: [bad-ignore] malformed suppression: want "//lint:ignore <pass> <reason>"`,
	"errs/errs.go:47:2: [err-drop] error result discarded; handle it or annotate //lint:ignore err-drop <reason>",
	`errs/errs.go:53:2: [bad-ignore] unknown pass "err-dropp" in suppression; known passes: det-maporder, det-rand, det-time, err-drop, lock-balance, lock-guard, spec-purity`,
	"errs/errs.go:54:2: [err-drop] error result discarded; handle it or annotate //lint:ignore err-drop <reason>",
	"errs/errs.go:60:2: [unused-ignore] //lint:ignore err-drop suppresses no finding; delete the directive or fix the pass name",
	"errs/errs.go:68:2: [unused-ignore] //lint:ignore spec-purity suppresses no finding; delete the directive or fix the pass name",
	"internal/automaton/clock.go:13:7: [det-time] time.Now reads the wall clock; model-layer code must take time as an input",
	"internal/automaton/clock.go:14:23: [det-time] time.Since reads the wall clock; model-layer code must take time as an input",
	"internal/automaton/clock.go:19:9: [det-rand] rand.Intn draws from the global RNG; model-layer code must use an injected generator",
	"internal/automaton/clock.go:33:2: [det-maporder] map iteration order escapes the loop (append/send/return) with no subsequent sort",
	"internal/automaton/clock.go:51:2: [det-maporder] map iteration order escapes the loop (append/send/return) with no subsequent sort",
	"internal/automaton/instrumented.go:27:9: [det-time] time.Now captured as a function value still reads the wall clock; inject an obs.Clock instead",
	"internal/automaton/instrumented.go:34:9: [det-rand] rand.Int captured as a function value draws from the global RNG; inject a generator instead",
	"internal/conc/conc.go:59:2: [lock-balance] s.mu locked but never released in this function; use defer s.mu.Unlock()",
	"internal/obs/obs.go:53:2: [det-maporder] map iteration order escapes the loop (append/send/return) with no subsequent sort",
	"internal/obs/trace/trace.go:39:33: [det-time] time.Now reads the wall clock; model-layer code must take time as an input",
	"internal/obs/trace/trace.go:55:2: [det-maporder] map iteration order escapes the loop (append/send/return) with no subsequent sort",
	"internal/specs/impure.go:13:2: [spec-purity] spec package function writes package-level variable hits; specs must be pure",
	"internal/specs/impure.go:14:2: [spec-purity] spec package function writes package-level variable registry; specs must be pure",
	"locks/branches.go:41:3: [lock-balance] p.mu may still be held on an early return; use defer p.mu.Unlock()",
	"locks/branches.go:66:2: [lock-balance] r.rw locked but never released in this function; use defer r.rw.Unlock()",
	"locks/locks.go:21:19: [lock-guard] method Peek touches field(s) n of Counter guarded by mu without acquiring it",
	"locks/locks.go:27:2: [lock-balance] c.mu locked but never released in this function; use defer c.mu.Unlock()",
	"locks/locks.go:33:2: [lock-balance] c.mu may still be held on an early return; use defer c.mu.Unlock()",
}

func runFixtures(t *testing.T, patterns ...string) []Diagnostic {
	t.Helper()
	diags, err := RunPackages(fixturePackages(t), DefaultConfig(), patterns)
	if err != nil {
		t.Fatalf("RunPackages: %v", err)
	}
	return diags
}

// TestGoldenFixtures pins the exact diagnostic set for all rule
// families at once. Any behavioral change to a rule must update this
// list deliberately.
func TestGoldenFixtures(t *testing.T) {
	diags := runFixtures(t, "./...")
	got := make([]string, len(diags))
	for i, d := range diags {
		got[i] = d.String()
	}
	if len(got) != len(golden) {
		t.Errorf("got %d findings, want %d\ngot:\n  %s", len(got), len(golden), strings.Join(got, "\n  "))
	}
	for i := 0; i < len(got) && i < len(golden); i++ {
		if got[i] != golden[i] {
			t.Errorf("finding %d:\n  got  %s\n  want %s", i, got[i], golden[i])
		}
	}
}

// TestEveryRuleFamilyRepresented guards the golden list itself: if a
// fixture stops compiling or a rule silently dies, the family count
// here fails before anyone trusts a green golden test. The list is
// KnownRules itself, so a suppressible pass name with no pass behind
// it fails here too.
func TestEveryRuleFamilyRepresented(t *testing.T) {
	families := map[string]int{}
	for _, d := range runFixtures(t, "./...") {
		families[d.Rule]++
	}
	for _, rule := range append(KnownRules(), "bad-ignore", "unused-ignore") {
		if families[rule] == 0 {
			t.Errorf("rule %s produced no fixture findings", rule)
		}
	}
}

// TestConcLayerClassification pins the scoping decision for the
// runtime concurrency layer: internal/conc is NOT a model-layer path,
// so its fixture — which reads the wall clock, draws from the global
// RNG, and stores both in fields — produces no determinism findings of
// any family, while the path-unscoped lock rules still fire on it.
// The mirror-image fixture internal/automaton proves the same sources
// would be flagged inside ModelPaths, so a silent conc fixture means
// "exempt", not "rule broken".
func TestConcLayerClassification(t *testing.T) {
	if pathMatches("fixture/internal/conc", DefaultConfig().ModelPaths) {
		t.Fatal("internal/conc matched ModelPaths; the concurrency layer must stay exempt from determinism rules")
	}
	lockFindings := 0
	for _, d := range runFixtures(t, "./...") {
		if !strings.HasPrefix(d.File, "internal/conc/") {
			continue
		}
		switch d.Rule {
		case "det-time", "det-rand", "det-maporder":
			t.Errorf("determinism rule fired on the concurrency layer: %s", d)
		case "lock-balance", "lock-guard":
			lockFindings++
		}
	}
	if lockFindings == 0 {
		t.Error("no lock-family finding on internal/conc; lock discipline must apply to every layer")
	}
}

// TestRelaxdLayerClassification pins the scoping decision for the
// networked runtime: internal/relaxd does real I/O on real clocks
// (socket deadlines, fsync batching), so it must stay outside
// ModelPaths — its behavior is held to the deterministic cluster by
// the differential tests, not by determinism lint. The path-unscoped
// families (lock discipline, error discipline) still apply.
func TestRelaxdLayerClassification(t *testing.T) {
	for _, path := range []string{"internal/relaxd", "fixture/internal/relaxd"} {
		if pathMatches(path, DefaultConfig().ModelPaths) {
			t.Fatalf("%s matched ModelPaths; the networked runtime must stay exempt from determinism rules", path)
		}
	}
	if !pathMatches("internal/relaxcheck", DefaultConfig().ModelPaths) {
		t.Fatal("internal/relaxcheck no longer matches ModelPaths; the checker is model-layer")
	}
	// The protocol relaxd executes is not in relaxd: cluster.Engine is
	// model-layer, and the determinism rules certify it for both callers.
	if !pathMatches("internal/cluster", DefaultConfig().ModelPaths) {
		t.Fatal("internal/cluster no longer matches ModelPaths; the shared protocol engine is model-layer")
	}
}

// TestLockBalanceBranchCases asserts the branch fixtures resolve the
// way locks.go documents: conditional defers and nested guards that
// release on every path are clean, the leaking variants are not.
func TestLockBalanceBranchCases(t *testing.T) {
	wantLines := map[int]bool{41: true, 66: true} // NestedLeak, ReadLeak
	gotLines := map[int]bool{}
	for _, d := range runFixtures(t, "./...") {
		if d.File != "locks/branches.go" {
			continue
		}
		if d.Rule != "lock-balance" {
			t.Errorf("unexpected %s finding in branches.go: %s", d.Rule, d)
		}
		gotLines[d.Line] = true
	}
	for line := range wantLines {
		if !gotLines[line] {
			t.Errorf("expected a lock-balance finding at branches.go:%d", line)
		}
	}
	for line := range gotLines {
		if !wantLines[line] {
			t.Errorf("clean branch case flagged at branches.go:%d (ConditionalDefer, NestedGuard, and Read must stay silent)", line)
		}
	}
}

// TestSuppressionsHold asserts the //lint:ignore sites stay silent:
// each names a function that violates its rule but carries a
// well-formed suppression.
func TestSuppressionsHold(t *testing.T) {
	suppressed := map[string]string{
		"SuppressedStamp": "det-time",
		"Tracked":         "spec-purity",
		"unsafePeek":      "lock-guard",
		"bump":            "lock-guard",
		"Best":            "err-drop",
	}
	for _, d := range runFixtures(t, "./...") {
		for fn := range suppressed {
			if strings.Contains(d.Message, fn) {
				t.Errorf("suppressed site %s still reported: %s", fn, d)
			}
		}
	}
	// The suppressed det-time call in SuppressedStamp is at
	// clock.go:88; no finding may appear past the last golden line of
	// that file (line 51).
	for _, d := range runFixtures(t, "./...") {
		if d.File == "internal/automaton/clock.go" && d.Line > 51 {
			t.Errorf("unexpected finding after the suppressed region: %s", d)
		}
	}
}

// TestCleanPackageIsClean asserts the negative fixture contributes no
// findings at all.
func TestCleanPackageIsClean(t *testing.T) {
	for _, d := range runFixtures(t, "./...") {
		if strings.HasPrefix(d.File, "clean/") {
			t.Errorf("clean fixture flagged: %s", d)
		}
	}
}

// TestPatternFiltering asserts ./dir/... selects only that package.
func TestPatternFiltering(t *testing.T) {
	diags := runFixtures(t, "./locks/...")
	if len(diags) != 5 {
		t.Fatalf("got %d findings for ./locks/..., want 5", len(diags))
	}
	for _, d := range diags {
		if !strings.HasPrefix(d.File, "locks/") {
			t.Errorf("pattern ./locks/... matched %s", d.File)
		}
	}
}

// TestRepairedTreeIsClean is the whole-tree smoke test:
// relaxlint over the repository itself (the module two levels up)
// has zero findings — every in-tree //lint:ignore must also count as
// used (no unused-ignore in the output).
func TestRepairedTreeIsClean(t *testing.T) {
	diags, err := RunPackages(repoPackages(t), DefaultConfig(), []string{"./..."})
	if err != nil {
		t.Fatalf("RunPackages on repository root: %v", err)
	}
	if len(diags) != 0 {
		lines := make([]string, len(diags))
		for i, d := range diags {
			lines[i] = d.String()
		}
		t.Errorf("repository tree has %d findings:\n  %s", len(diags), strings.Join(lines, "\n  "))
	}
}

// TestJSONOutputIsStable asserts the -json encoding is deterministic
// and carries the documented schema fields.
func TestJSONOutputIsStable(t *testing.T) {
	diags := runFixtures(t, "./...")
	a, err := json.Marshal(diags)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	b, err := json.Marshal(runFixtures(t, "./..."))
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if !bytes.Equal(a, b) {
		t.Error("two identical runs marshaled differently")
	}
	var decoded []map[string]any
	if err := json.Unmarshal(a, &decoded); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	for _, key := range []string{"file", "line", "col", "rule", "message"} {
		if _, ok := decoded[0][key]; !ok {
			t.Errorf("JSON finding lacks documented field %q", key)
		}
	}
}

// TestNoMatchIsError asserts a pattern selecting zero packages fails
// loudly instead of passing vacuously (a typo'd CI invocation must
// not look green).
func TestNoMatchIsError(t *testing.T) {
	_, err := RunPackages(fixturePackages(t), DefaultConfig(), []string{"./nosuchpkg/..."})
	if err == nil || !strings.Contains(err.Error(), "no packages match") {
		t.Errorf("Run with a no-match pattern: err = %v, want 'no packages match'", err)
	}
}

// TestMatchPattern covers the CLI pattern grammar.
func TestMatchPattern(t *testing.T) {
	cases := []struct {
		rel      string
		patterns []string
		want     bool
	}{
		{"internal/txn", []string{"./..."}, true},
		{".", []string{"./..."}, true},
		{".", []string{"."}, true},
		{"internal/txn", []string{"./internal/..."}, true},
		{"internal/txn", []string{"internal/txn"}, true},
		{"internal/txn", []string{"./internal/txn/"}, true},
		{"internal/txnx", []string{"./internal/txn/..."}, false},
		{"internal/txn/sub", []string{"./internal/txn/..."}, true},
		{"cmd/relaxlint", []string{"./internal/..."}, false},
	}
	for _, c := range cases {
		if got := matchPattern(c.rel, c.patterns); got != c.want {
			t.Errorf("matchPattern(%q, %v) = %v, want %v", c.rel, c.patterns, got, c.want)
		}
	}
}
