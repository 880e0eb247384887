package lint

import (
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The fixture tests follow the x/tools analysistest convention: every line
// in testdata that should be flagged carries a trailing
//
//	// want `regexp`
//
// comment, and the test fails on any unexpected or missing diagnostic. Each
// fixture is analyzed under the import path of a real in-scope package so
// analyzer scoping and sanctioned-file rules apply as they do on the tree.

var (
	loaderOnce sync.Once
	loaderVal  *Loader
	loaderErr  error
)

// testLoader shares one Loader (and so one type-checked stdlib) across tests.
// It is anchored at the module root, so "./..." covers the whole module, as
// it does for the CLI run from the root; fixture directories still resolve
// against the test's working directory.
func testLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		loaderVal, loaderErr = NewLoader(".")
		if loaderErr == nil {
			loaderVal, loaderErr = NewLoader(loaderVal.Root)
		}
	})
	if loaderErr != nil {
		t.Fatalf("loader: %v", loaderErr)
	}
	return loaderVal
}

var wantPatRE = regexp.MustCompile("`([^`]*)`|\"([^\"]*)\"")

type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

func runFixture(t *testing.T, a *Analyzer, importPath, dir string) {
	t.Helper()
	pkg, err := testLoader(t).LoadFixture(dir, importPath)
	if err != nil {
		t.Fatalf("fixture %s: %v", dir, err)
	}
	diags, err := Run(pkg, []*Analyzer{a})
	if err != nil {
		t.Fatalf("fixture %s: %v", dir, err)
	}

	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				rest, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				ms := wantPatRE.FindAllStringSubmatch(rest, -1)
				if len(ms) == 0 {
					t.Fatalf("%s:%d: malformed want comment %q", pos.Filename, pos.Line, rest)
				}
				for _, m := range ms {
					pat := m[1]
					if pat == "" {
						pat = m[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, pat, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}

	for _, d := range diags {
		found := false
		for _, w := range wants {
			if !w.matched && w.file == d.Position.Filename && w.line == d.Position.Line && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched %q", w.file, w.line, w.re)
		}
	}
}

func TestSimDeterminism(t *testing.T) {
	runFixture(t, SimDeterminism, "bgpcoll/internal/coll", "testdata/simdeterminism")
}

func TestRawGoroutine(t *testing.T) {
	runFixture(t, RawGoroutine, "bgpcoll/internal/sim", "testdata/rawgoroutine")
}

func TestRawGoroutineBenchSite(t *testing.T) {
	runFixture(t, RawGoroutine, "bgpcoll/internal/bench", "testdata/rawgoroutine_bench")
}

func TestRawGoroutineMachineSite(t *testing.T) {
	runFixture(t, RawGoroutine, "bgpcoll/internal/machine", "testdata/rawgoroutine_machine")
}

// TestRawGoroutineServeSite checks the bgpsimd worker-pool sanction: pool.go
// under bgpcoll/internal/serve may launch workers, any sibling file may not.
func TestRawGoroutineServeSite(t *testing.T) {
	runFixture(t, RawGoroutine, "bgpcoll/internal/serve", "testdata/rawgoroutine_serve")
}

// TestRawGoroutineServeSiteIsPathSpecific reloads the serve fixture under a
// collective import path: pool.go loses its exemption there, adding its go
// statement to the one always-flagged site.
func TestRawGoroutineServeSiteIsPathSpecific(t *testing.T) {
	pkg, err := testLoader(t).LoadFixture("testdata/rawgoroutine_serve", "bgpcoll/internal/coll")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(pkg, []*Analyzer{RawGoroutine})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 {
		t.Errorf("got %d diagnostics, want 2 (pool.go exemption must be path-specific):", len(diags))
		for _, d := range diags {
			t.Logf("  %s", d)
		}
	}
}

// TestSimDeterminismProgramFrameSite checks the frame-mutation exemption is
// file-specific: the identical assignments are clean in program.go under
// bgpcoll/internal/sim and flagged in any sibling file.
func TestSimDeterminismProgramFrameSite(t *testing.T) {
	runFixture(t, SimDeterminism, "bgpcoll/internal/sim", "testdata/simdeterminism_sim")
}

// TestSimDeterminismWallClockSite checks the wall-clock sanction is
// file-specific: figs.go under bgpcoll/internal/bench may time the simulator
// itself, any sibling file is still flagged.
func TestSimDeterminismWallClockSite(t *testing.T) {
	runFixture(t, SimDeterminism, "bgpcoll/internal/bench", "testdata/simdeterminism_bench")
}

// TestWallClockSanctionIsPathSpecific loads the same fixture under another
// import path: figs.go and heapsampler.go lose their exemptions and all
// five wall-clock reads are flagged.
func TestWallClockSanctionIsPathSpecific(t *testing.T) {
	pkg, err := testLoader(t).LoadFixture("testdata/simdeterminism_bench", "bgpcoll/internal/coll")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(pkg, []*Analyzer{SimDeterminism})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 5 {
		t.Errorf("got %d diagnostics, want 5 (figs.go/heapsampler.go exemptions must be path-specific):", len(diags))
		for _, d := range diags {
			t.Logf("  %s", d)
		}
	}
}

func TestWorldReuse(t *testing.T) {
	runFixture(t, WorldReuse, "bgpcoll/internal/coll", "testdata/worldreuse")
}

// TestWorldReuseBenchSite checks the pool-file exemption is file-specific:
// worldpool.go under bgpcoll/internal/bench may reset and retain, any
// sibling file may not.
func TestWorldReuseBenchSite(t *testing.T) {
	runFixture(t, WorldReuse, "bgpcoll/internal/bench", "testdata/worldreuse_bench")
}

// TestWorldReusePoolFileIsPathSpecific loads the bench fixture under a
// different sim-driven import path: worldpool.go loses its exemption there,
// adding its Reset call and its pool variable to the two always-flagged
// sites.
func TestWorldReusePoolFileIsPathSpecific(t *testing.T) {
	pkg, err := testLoader(t).LoadFixture("testdata/worldreuse_bench", "bgpcoll/internal/coll")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(pkg, []*Analyzer{WorldReuse})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 4 {
		t.Errorf("got %d diagnostics, want 4 (worldpool.go exemption must be path-specific):", len(diags))
		for _, d := range diags {
			t.Logf("  %s", d)
		}
	}
}

func TestMapOrder(t *testing.T) {
	runFixture(t, MapOrder, "bgpcoll/internal/mpi", "testdata/maporder")
}

func TestAtomicDiscipline(t *testing.T) {
	runFixture(t, AtomicDiscipline, "bgpcoll/internal/shm", "testdata/atomicdiscipline")
}

// TestScopingExemptsOtherPackages checks that the same offending code is
// ignored when the package is outside an analyzer's scope (examples and cmd
// legitimately read the wall clock).
func TestScopingExemptsOtherPackages(t *testing.T) {
	pkg, err := testLoader(t).LoadFixture("testdata/simdeterminism", "bgpcoll/examples/demo")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(pkg, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("out-of-scope package was flagged: %s", d)
	}
}

// TestSanctionedGoFileIsExactlyOne ensures the rawgoroutine exemption only
// covers proc.go in the real sim package: the identical file under another
// path is flagged.
func TestSanctionedGoFileIsExactlyOne(t *testing.T) {
	pkg, err := testLoader(t).LoadFixture("testdata/rawgoroutine", "bgpcoll/internal/coll")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(pkg, []*Analyzer{RawGoroutine})
	if err != nil {
		t.Fatal(err)
	}
	// proc.go's go statement loses its exemption outside
	// bgpcoll/internal/sim, joining the four always-flagged sites (the
	// retired pool.go launch site and the program-execution file among them).
	if len(diags) != 5 {
		t.Errorf("got %d diagnostics, want 5 (the proc.go exemption must be path-specific):", len(diags))
		for _, d := range diags {
			t.Logf("  %s", d)
		}
	}

	// Same for the bench sites: parallel.go and heapsampler.go are only
	// exempt under bgpcoll/internal/bench, so their two go statements join
	// the one always-flagged site.
	pkg, err = testLoader(t).LoadFixture("testdata/rawgoroutine_bench", "bgpcoll/internal/coll")
	if err != nil {
		t.Fatal(err)
	}
	diags, err = Run(pkg, []*Analyzer{RawGoroutine})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 3 {
		t.Errorf("got %d diagnostics, want 3 (parallel.go/heapsampler.go exemptions must be path-specific):", len(diags))
		for _, d := range diags {
			t.Logf("  %s", d)
		}
	}

	// And the machine construction site: build.go is only exempt under
	// bgpcoll/internal/machine.
	pkg, err = testLoader(t).LoadFixture("testdata/rawgoroutine_machine", "bgpcoll/internal/coll")
	if err != nil {
		t.Fatal(err)
	}
	diags, err = Run(pkg, []*Analyzer{RawGoroutine})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 {
		t.Errorf("got %d diagnostics, want 2 (build.go exemption must be path-specific):", len(diags))
		for _, d := range diags {
			t.Logf("  %s", d)
		}
	}
}

func TestProgFrame(t *testing.T) {
	runFixture(t, ProgFrame, "bgpcoll/internal/coll", "testdata/progframe")
}

// TestProgFrameBadFixture pins the CI gate-gate: the deliberately broken
// scratch collective must fail the full suite with exactly the planted
// tail-position diagnostic, proving the gate itself still gates.
func TestProgFrameBadFixture(t *testing.T) {
	pkg, err := testLoader(t).LoadFixture("testdata/progframe_bad", "bgpcoll/internal/coll")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(pkg, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want exactly the planted one: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Analyzer != "progframe" || !strings.Contains(d.Message, "must be the last action") {
		t.Errorf("planted bug not caught as a progframe tail violation: %s", d)
	}
	if d.Severity != SevError {
		t.Errorf("planted bug reported as %s, want %s", d.Severity, SevError)
	}
}

func TestVTime(t *testing.T) {
	runFixture(t, VTime, "bgpcoll/internal/coll", "testdata/vtime")
}

// TestVTimeBenchSanctionedFile checks the host-facing exemption is
// file-specific: parallel.go under bgpcoll/internal/bench may read host
// state, any sibling file may not.
func TestVTimeBenchSanctionedFile(t *testing.T) {
	runFixture(t, VTime, "bgpcoll/internal/bench", "testdata/vtime_bench")
}

// TestVTimeSanctionedFileIsPathSpecific reloads the bench fixture under a
// collective import path: parallel.go loses its exemption there, adding its
// conversion and parameter sinks to the two always-flagged ones.
func TestVTimeSanctionedFileIsPathSpecific(t *testing.T) {
	pkg, err := testLoader(t).LoadFixture("testdata/vtime_bench", "bgpcoll/internal/coll")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(pkg, []*Analyzer{VTime})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 4 {
		t.Errorf("got %d diagnostics, want 4 (parallel.go exemption must be path-specific):", len(diags))
		for _, d := range diags {
			t.Logf("  %s", d)
		}
	}
}

func TestHotAlloc(t *testing.T) {
	runFixture(t, HotAlloc, "bgpcoll/internal/coll", "testdata/hotalloc")
}

// TestHotAllocSeverity pins the advisory classification: hotalloc findings
// report but must not fail the error gate.
func TestHotAllocSeverity(t *testing.T) {
	pkg, err := testLoader(t).LoadFixture("testdata/hotalloc", "bgpcoll/internal/coll")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(pkg, []*Analyzer{HotAlloc})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) == 0 {
		t.Fatal("hotalloc fixture produced no diagnostics")
	}
	for _, d := range diags {
		if d.Severity != SevAdvisory {
			t.Errorf("hotalloc finding has severity %s, want %s: %s", d.Severity, SevAdvisory, d)
		}
	}
}

// TestAllowAudit exercises the suppression audit directly (audit findings
// land on the annotation's own comment line, which cannot also carry a
// want comment).
func TestAllowAudit(t *testing.T) {
	pkg, err := testLoader(t).LoadFixture("testdata/allowaudit", "bgpcoll/internal/coll")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(pkg, []*Analyzer{SimDeterminism})
	if err != nil {
		t.Fatal(err)
	}
	wantMsgs := []string{
		"names no rule",
		"no justification",
		`unknown rule "nosuchrule"`,
		"suppresses no simdeterminism finding",
	}
	for _, want := range wantMsgs {
		found := false
		for _, d := range diags {
			if d.Analyzer == allowAuditName && strings.Contains(d.Message, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no allowaudit finding containing %q", want)
		}
	}
	if len(diags) != len(wantMsgs) {
		t.Errorf("got %d diagnostics, want %d:", len(diags), len(wantMsgs))
		for _, d := range diags {
			t.Logf("  %s", d)
		}
	}
}

// TestRepoClean runs the full suite over the whole module (the loader is
// anchored at the module root): the tree must stay lint-clean, making the
// determinism guarantee mechanical. This is the same gate CI applies via
// `go run ./cmd/bgplint ./...` from the root.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping whole-module lint in -short mode")
	}
	loader := testLoader(t)
	pkgs, err := loader.Load([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		diags, err := Run(pkg, Analyzers())
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			t.Errorf("%s", d)
		}
	}
}
