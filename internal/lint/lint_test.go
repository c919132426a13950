package lint

import (
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

// golden is the exact finding set over the fixture tree: both passes
// and both meta diagnostics fire, suppressed sites stay silent, and the
// clean package contributes nothing. The fixture's one binary, app,
// reaches every function of errs and clean, and the unreached fixture's
// functions that must stay silent: Dog.Name through an interface call,
// Dog.String through fmt, viaVar through a package-level variable,
// keptCallee through the suppressed Kept, and the generic Map and
// Box.Get through their instances.
var golden = []string{
	"errs/errs.go:16:2: [err-drop] error result discarded; handle it or annotate //lint:ignore err-drop <reason>",
	"errs/errs.go:17:5: [err-drop] error result discarded; handle it or annotate //lint:ignore err-drop <reason>",
	"errs/errs.go:18:5: [err-drop] error result discarded; handle it or annotate //lint:ignore err-drop <reason>",
	`errs/errs.go:46:2: [bad-ignore] malformed suppression: want "//lint:ignore <pass> <reason>"`,
	"errs/errs.go:47:2: [err-drop] error result discarded; handle it or annotate //lint:ignore err-drop <reason>",
	`errs/errs.go:53:2: [bad-ignore] unknown pass "err-dropp" in suppression; known passes: err-drop, unreached`,
	"errs/errs.go:54:2: [err-drop] error result discarded; handle it or annotate //lint:ignore err-drop <reason>",
	"errs/errs.go:60:2: [unused-ignore] //lint:ignore err-drop suppresses no finding; delete the directive or fix the pass name",
	"unreached/unreached.go:8:1: [unreached] Exported is reached from no main, init or package variable; delete it or annotate //lint:ignore unreached <reason>",
	"unreached/unreached.go:11:1: [unreached] unexported is reached from no main, init or package variable; delete it or annotate //lint:ignore unreached <reason>",
	"unreached/unreached.go:17:1: [unreached] Widget.Dead is reached from no main, init or package variable; delete it or annotate //lint:ignore unreached <reason>",
	"unreached/unreached.go:37:1: [unreached] Cat.Name is reached from no main, init or package variable; delete it or annotate //lint:ignore unreached <reason>",
	"unreached/unreached.go:74:1: [unreached] Last is reached from no main, init or package variable; delete it or annotate //lint:ignore unreached <reason>",
	`unreached/unreached.go:79:1: [bad-ignore] malformed suppression: want "//lint:ignore <pass> <reason>"`,
	"unreached/unreached.go:80:1: [unreached] NoReason is reached from no main, init or package variable; delete it or annotate //lint:ignore unreached <reason>",
	"unreached/unreached.go:84:1: [unused-ignore] //lint:ignore unreached suppresses no finding; delete the directive or fix the pass name",
}

func runFixtures(t *testing.T) []Diagnostic {
	t.Helper()
	return RunPackages(fixturePackages(t))
}

// TestGoldenFixtures pins the exact diagnostic set. Any behavioral
// change to the pass or the suppression machinery must update this
// list deliberately.
func TestGoldenFixtures(t *testing.T) {
	diags := runFixtures(t)
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
	for _, d := range runFixtures(t) {
		families[d.Rule]++
	}
	for _, rule := range append(KnownRules(), "bad-ignore", "unused-ignore") {
		if families[rule] == 0 {
			t.Errorf("rule %s produced no fixture findings", rule)
		}
	}
}

// TestSuppressionsHold asserts a well-formed //lint:ignore keeps its
// site silent: Best discards an error under a suppression.
func TestSuppressionsHold(t *testing.T) {
	for _, d := range runFixtures(t) {
		if d.File == "errs/errs.go" && d.Line >= 38 && d.Line <= 41 {
			t.Errorf("suppressed site Best still reported: %s", d)
		}
	}
}

// TestCleanPackageIsClean asserts the negative fixture contributes no
// findings at all.
func TestCleanPackageIsClean(t *testing.T) {
	for _, d := range runFixtures(t) {
		if strings.HasPrefix(d.File, "clean/") {
			t.Errorf("clean fixture flagged: %s", d)
		}
	}
}

// TestRepairedTreeIsClean is the whole-tree check: the pass over the
// repository itself (the module two levels up) has zero findings —
// every in-tree //lint:ignore must also count as used (no
// unused-ignore in the output).
func TestRepairedTreeIsClean(t *testing.T) {
	pkgs := repoPackages(t)
	if len(pkgs) == 0 {
		t.Fatal("loaded no packages from the repository root")
	}
	if diags := RunPackages(pkgs); len(diags) != 0 {
		lines := make([]string, len(diags))
		for i, d := range diags {
			lines[i] = d.String()
		}
		t.Errorf("repository tree has %d findings:\n  %s", len(diags), strings.Join(lines, "\n  "))
	}
}
