package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
)

// SimDeterminism forbids wall-clock time and the unseeded global math/rand
// source in simulator-driven packages, and — since program-mode ranks were
// introduced — direct mutation of a Proc's program frame outside the kernel's
// own execution file. Event ordering there must depend only on virtual time
// (sim.Time) and explicitly seeded randomness; one stray time.Now() silently
// corrupts every benchmark figure without failing a test, and one stray
// `p.cont = ...` detaches a resume from the queue position the kernel owes
// it.
var SimDeterminism = &Analyzer{
	Name:    "simdeterminism",
	Doc:     "forbid wall-clock time, unseeded math/rand, and out-of-kernel Proc program-frame mutation in simulator-driven packages",
	Applies: isSimDriven,
	Run:     runSimDeterminism,
}

// progFrameFields is the resumable-program state of sim.Proc: the pending
// continuation and the armed/inline markers. The kernel maintains the
// invariant that exactly one resume is in flight per armed frame; any
// assignment outside sim/program.go breaks it silently.
var progFrameFields = map[string]bool{
	"cont":   true,
	"armed":  true,
	"inline": true,
}

// progFrameFile is the one file allowed to mutate program frames: the program
// ops and the kernel activation wrappers live there.
const (
	progFramePkg  = "bgpcoll/internal/sim"
	progFrameFile = "program.go"
)

// isProcProgFrame reports whether sel selects a program-frame field of a Proc
// type declared in a simulator-driven package (the real sim.Proc, or a
// fixture's stand-in).
func isProcProgFrame(pass *Pass, sel *ast.SelectorExpr) bool {
	if !progFrameFields[sel.Sel.Name] {
		return false
	}
	s, ok := pass.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return false
	}
	t := s.Recv()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Proc" && obj.Pkg() != nil && isSimDriven(obj.Pkg().Path())
}

// wallClockSanctioned lists, per simulator-driven import path, the files
// allowed to read the wall clock: meta-measurement sites that time the
// simulator itself — world construction cost, the figS capacity sweep's
// wall-clock columns, the heap sampler's real-time polling ticker — rather
// than anything the virtual clock observes. Reads there bracket whole
// kernel runs and can shape no event ordering.
var wallClockSanctioned = map[string]map[string]bool{
	"bgpcoll/internal/bench": {"figs.go": true, "figs_test.go": true, "heapsampler.go": true},
}

// bannedTimeFuncs are the package time functions that read or wait on the
// wall clock. Pure types and constants (time.Duration, time.Millisecond)
// stay legal: they do not observe real time.
var bannedTimeFuncs = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
}

// seededRandConstructors are the math/rand (and v2) package-level functions
// that build an explicitly seeded generator; everything else at package
// level draws from the process-global source, whose sequence depends on what
// else has consumed it (and, in rand/v2, on a per-process random seed).
var seededRandConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

func runSimDeterminism(pass *Pass) error {
	for ident, obj := range pass.Info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil {
			continue
		}
		if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
			continue // methods (e.g. (*rand.Rand).Intn) are fine
		}
		switch fn.Pkg().Path() {
		case "time":
			if bannedTimeFuncs[fn.Name()] {
				base := filepath.Base(pass.Fset.Position(ident.Pos()).Filename)
				if wallClockSanctioned[pass.Path][base] {
					continue
				}
				pass.Reportf(ident.Pos(),
					"time.%s reads the wall clock; simulator-driven code must use the kernel's virtual clock (sim.Time)", fn.Name())
			}
		case "math/rand", "math/rand/v2":
			if !seededRandConstructors[fn.Name()] {
				pass.Reportf(ident.Pos(),
					"rand.%s draws from the unseeded process-global source; use rand.New(rand.NewSource(seed)) so runs are reproducible", fn.Name())
			}
		}
	}
	// Uses iteration order is nondeterministic, but diagnostics are sorted
	// by position in Run, so output order is stable.

	for _, file := range pass.Files {
		name := filepath.Base(pass.Fset.Position(file.Pos()).Filename)
		if pass.Path == progFramePkg && name == progFrameFile {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for _, lhs := range as.Lhs {
				if sel, ok := lhs.(*ast.SelectorExpr); ok && isProcProgFrame(pass, sel) {
					pass.Reportf(sel.Pos(),
						"direct mutation of Proc program frame field %s outside kernel execution; resume state may only change through the program ops in sim/program.go", sel.Sel.Name)
				}
			}
			return true
		})
	}
	return nil
}
