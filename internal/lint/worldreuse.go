package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// WorldReuse enforces the world-pool lease discipline introduced with
// resettable partitions (DESIGN.md §12). Reset rewinds a kernel's arenas, so
// every counter and process handle carved before it is poison
// afterwards: the slab slot will be recarved for someone else. Two
// mechanically checkable rules keep that boundary safe:
//
//  1. Reset on a world-holding type (sim.Kernel, machine.Machine, mpi.World,
//     cnk.Process, tree.Network) may only be called from the sanctioned
//     reset/lease sites — the sim package itself, the Reset cascades in
//     machine/reset.go and mpi/reset.go, and the bench pool in
//     bench/worldpool.go. Everyone else leases through the pool, which is the
//     only place that can prove the world finished cleanly first.
//
//  2. No package-level variable in a simulator-driven package may hold (or
//     reach, through any composite type) a *sim.Counter or *sim.Proc: such
//     a variable outlives the run that carved the handle, and
//     the first use after a Reset is a stale-epoch panic at best and silent
//     cross-run corruption at worst. Per-run state belongs in the world's
//     scratch (a value under an mpi.NewScratchKey, fetched with
//     World.Scratch and re-armed by every call) or in locals.
//
// Test files are exempt: exercising Reset and stale handles directly is
// exactly what the reuse tests do. A Reset method on any other type is an
// ordinary operation and is not matched.
var WorldReuse = &Analyzer{
	Name:    "worldreuse",
	Doc:     "restrict world Reset calls to the sanctioned pool/reset sites and forbid package-level sim handle retention in simulator-driven packages",
	Applies: isSimDriven,
	Run:     runWorldReuse,
}

// worldResetReceivers names the types whose Reset rewinds a whole partition
// (or a per-world slice of one). Matching is by type name within a
// simulator-driven package, like the program-frame rule, so fixtures can
// stand in for the real types.
var worldResetReceivers = map[string]bool{
	"Kernel":  true, // sim.Kernel
	"Machine": true, // machine.Machine
	"World":   true, // mpi.World
	"Process": true, // cnk.Process
	"Network": true, // tree.Network
}

// worldResetSanctioned lists, per import path, the one file allowed to call
// (or forward) a world Reset. The sim package is exempt wholesale: the kernel
// owns its own lifecycle.
var worldResetSanctioned = map[string]string{
	"bgpcoll/internal/machine": "reset.go",
	"bgpcoll/internal/mpi":     "reset.go",
	"bgpcoll/internal/bench":   "worldpool.go",
}

// kernelHandleTypes are the arena-carved sim types whose handles go stale at
// Reset.
var kernelHandleTypes = map[string]bool{
	"Counter": true,
	"Proc":    true,
}

// isWorldReset reports whether obj is the Reset method of a world-holding
// type declared in a simulator-driven package.
func isWorldReset(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Name() != "Reset" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	o := named.Obj()
	return worldResetReceivers[o.Name()] && o.Pkg() != nil && isSimDriven(o.Pkg().Path())
}

// reachesKernelHandle walks a type's structure (pointers, slices, arrays,
// maps, channels, struct fields) looking for an arena-carved sim handle.
// Function types are opaque: a closure's captures are not visible to the
// type checker. seen breaks cycles through recursive types.
func reachesKernelHandle(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	seen[t] = true
	switch t := t.(type) {
	case *types.Named:
		o := t.Obj()
		if kernelHandleTypes[o.Name()] && o.Pkg() != nil && isSimDriven(o.Pkg().Path()) {
			return true
		}
		return reachesKernelHandle(t.Underlying(), seen)
	case *types.Pointer:
		return reachesKernelHandle(t.Elem(), seen)
	case *types.Slice:
		return reachesKernelHandle(t.Elem(), seen)
	case *types.Array:
		return reachesKernelHandle(t.Elem(), seen)
	case *types.Chan:
		return reachesKernelHandle(t.Elem(), seen)
	case *types.Map:
		return reachesKernelHandle(t.Key(), seen) || reachesKernelHandle(t.Elem(), seen)
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if reachesKernelHandle(t.Field(i).Type(), seen) {
				return true
			}
		}
	}
	return false
}

// worldReuseExemptFile reports whether findings in the named file are
// sanctioned: the file designated for this import path, any file of the sim
// package, or a test file.
func worldReuseExemptFile(pkgPath, base string) bool {
	if pkgPath == "bgpcoll/internal/sim" {
		return true
	}
	if strings.HasSuffix(base, "_test.go") {
		return true
	}
	return worldResetSanctioned[pkgPath] == base
}

func runWorldReuse(pass *Pass) error {
	for _, file := range pass.Files {
		base := filepath.Base(pass.Fset.Position(file.Pos()).Filename)
		if worldReuseExemptFile(pass.Path, base) {
			continue
		}
		// Reset-call siting: anywhere in the file, including nested closures.
		ast.Inspect(file, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if obj, ok := pass.Info.Uses[sel.Sel]; ok && isWorldReset(obj) {
					pass.Reportf(sel.Sel.Pos(),
						"world Reset outside a sanctioned reset/lease site; lease through the bench world pool (internal/bench/worldpool.go) instead of resetting in place")
				}
			}
			return true
		})
		// Handle retention: package-level vars only; locals die with the run.
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					obj, ok := pass.Info.Defs[name].(*types.Var)
					if !ok {
						continue
					}
					if reachesKernelHandle(obj.Type(), map[types.Type]bool{}) {
						pass.Reportf(name.Pos(),
							"package-level variable %s can retain an arena-carved sim handle across a world Reset; keep per-run handles in the world's scratch (mpi.NewScratchKey, World.Scratch) or in locals", name.Name)
					}
				}
			}
		}
	}
	return nil
}
