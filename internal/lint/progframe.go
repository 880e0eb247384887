package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// ProgFrame verifies the explicit-resume (CPS) contract that program-mode
// collectives are written against, using the CFG engine:
//
//   - Tail calls: a parking operation (a *Then op, or a helper ending in
//     Then with a final func() continuation) and an invocation of a stored
//     func() continuation must be the last action on every CFG path of
//     their caller — the continuation carries the rest of the body. Code
//     after an arming call runs concurrently with the armed resume and
//     panics at runtime ("resume already pending"); this check catches it
//     statically.
//   - Armed frames: once a frame is armed (armed = true or schedContAt),
//     no program-frame field may be written until it is disarmed. This is
//     the flow-sensitive complement to simdeterminism's file scoping: it
//     holds inside sim/program.go too.
//   - Bound-once continuations: a continuation closure or method value
//     constructed per loop iteration or per recursive activation allocates
//     once per chunk; continuations must be method values bound once per
//     rank on a reusable state struct.
//   - Single transcription: RegisterProg* takes a named package-level
//     function (the one transcription serving both modes). Code outside sim
//     cannot branch on the mode at all: Proc exposes no accessor for it.
//
// sim/program.go is exempt from the tail and bound-once checks: it is the
// implementation the contract is written against (Proc.run legitimately
// runs retirement code after invoking the continuation). Test files are
// exempt entirely — the runtime checkIdle guard covers them, and contract
// tests violate the rules on purpose to assert the panic.
var ProgFrame = &Analyzer{
	Name:     "progframe",
	Doc:      "verify the explicit-resume program contract: tail-positioned parking ops and continuations, no armed-frame writes, continuations bound once per rank, named RegisterProg* transcriptions",
	Severity: SevError,
	Applies: func(path string) bool {
		switch path {
		case "bgpcoll/internal/coll", "bgpcoll/internal/mpi", "bgpcoll/internal/sim":
			return true
		}
		return false
	},
	Run: runProgFrame,
}

func runProgFrame(pass *Pass) error {
	for _, file := range pass.Files {
		name := filepath.Base(pass.Fset.Position(file.Pos()).Filename)
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		trusted := pass.Path == progFramePkg && name == progFrameFile
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkProgDecl(pass, fd, trusted)
		}
		if pass.Path == "bgpcoll/internal/coll" {
			checkRegisterProg(pass, file)
		}
	}
	return nil
}

// checkProgDecl analyzes one top-level function and every function literal
// nested in it. Literal bodies get their own CFGs; the recursion structure
// of the literals (which literal is bound to which local variable, and
// which re-enter themselves) is computed once over the whole declaration.
func checkProgDecl(pass *Pass, fd *ast.FuncDecl, trusted bool) {
	litBound := boundLits(pass, fd)
	selfRec := selfRecursive(pass, fd, litBound)

	var walk func(body *ast.BlockStmt, encl []*ast.FuncLit)
	walk = func(body *ast.BlockStmt, encl []*ast.FuncLit) {
		u := newProgUnit(pass, body)
		if !trusted {
			u.checkTails()
			u.checkBoundOnce(encl, selfRec)
		}
		u.checkArmed()
		// Descend into literals that are direct children of this body (not
		// through deeper literals — those recurse on their own turn).
		for _, lit := range directLits(body) {
			walk(lit.Body, append(encl, lit))
		}
	}
	walk(fd.Body, nil)
}

// directLits returns the function literals in body that are not nested
// inside another literal within body.
func directLits(body *ast.BlockStmt) []*ast.FuncLit {
	var lits []*ast.FuncLit
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			lits = append(lits, lit)
			return false
		}
		return true
	})
	return lits
}

// boundLits maps each function literal in fd to the local variable it is
// assigned to, if any (the `var step func(); step = func() {...}` idiom).
func boundLits(pass *Pass, fd *ast.FuncDecl) map[*ast.FuncLit]*types.Var {
	bound := map[*ast.FuncLit]*types.Var{}
	record := func(lhs ast.Expr, rhs ast.Expr) {
		lit, ok := rhs.(*ast.FuncLit)
		if !ok {
			return
		}
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		if v := identVar(pass.Info, id); v != nil {
			bound[lit] = v
		}
	}
	ast.Inspect(fd, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					record(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i := range n.Names {
					record(n.Names[i], n.Values[i])
				}
			}
		}
		return true
	})
	return bound
}

// selfRecursive reports which bound literals reference their own variable
// somewhere inside their body (directly or through a nested literal): each
// activation of such a literal re-runs its allocation sites.
func selfRecursive(pass *Pass, fd *ast.FuncDecl, bound map[*ast.FuncLit]*types.Var) map[*ast.FuncLit]bool {
	rec := map[*ast.FuncLit]bool{}
	for lit, v := range bound {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && identVar(pass.Info, id) == v {
				rec[lit] = true
			}
			return true
		})
	}
	return rec
}

// identVar resolves an identifier to its variable object.
func identVar(info *types.Info, id *ast.Ident) *types.Var {
	if v, ok := info.Defs[id].(*types.Var); ok {
		return v
	}
	if v, ok := info.Uses[id].(*types.Var); ok {
		return v
	}
	return nil
}

// A progUnit is one function body under the progframe checks: its CFG plus
// memoized path facts.
type progUnit struct {
	pass     *Pass
	body     *ast.BlockStmt
	g        *CFG
	pureExit map[*Block]int // memo: 0 unknown, 1 yes, 2 no, 3 in progress
	cycles   map[*Block]bool
	nodeBlk  map[ast.Node]*Block
}

func newProgUnit(pass *Pass, body *ast.BlockStmt) *progUnit {
	u := &progUnit{pass: pass, body: body, g: NewCFG(body)}
	u.pureExit = map[*Block]int{}
	u.cycles = blocksOnCycles(u.g)
	u.nodeBlk = map[ast.Node]*Block{}
	for _, b := range u.g.Blocks {
		for _, n := range b.Nodes {
			u.nodeBlk[n] = b
		}
	}
	return u
}

// blocksOnCycles returns the blocks that can reach themselves.
func blocksOnCycles(g *CFG) map[*Block]bool {
	on := map[*Block]bool{}
	for _, b := range g.Blocks {
		seen := map[*Block]bool{}
		stack := append([]*Block(nil), b.Succs...)
		for len(stack) > 0 {
			s := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if s == b {
				on[b] = true
				break
			}
			if seen[s] {
				continue
			}
			seen[s] = true
			stack = append(stack, s.Succs...)
		}
	}
	return on
}

// isPureExit reports whether every path from b executes nothing but bare
// returns before reaching Exit.
func (u *progUnit) isPureExit(b *Block) bool {
	switch u.pureExit[b] {
	case 1:
		return true
	case 2:
		return false
	case 3:
		return true // cycle of empty blocks; treat as exiting
	}
	u.pureExit[b] = 3
	ok := true
	if b != u.g.Exit {
		for _, n := range b.Nodes {
			if _, isRet := n.(*ast.ReturnStmt); !isRet {
				ok = false
				break
			}
		}
		if ok && len(b.Succs) == 0 {
			// A node-free dead end that is not Exit is a panic terminator or
			// an unreachable stub; nothing runs after the call on that path.
			ok = true
		}
		if ok {
			for _, s := range b.Succs {
				if !u.isPureExit(s) {
					ok = false
					break
				}
			}
		}
	}
	if ok {
		u.pureExit[b] = 1
	} else {
		u.pureExit[b] = 2
	}
	return ok
}

// inTail reports whether node i of block b is followed only by bare
// returns on every path to Exit.
func (u *progUnit) inTail(b *Block, i int) bool {
	for _, n := range b.Nodes[i+1:] {
		if _, ok := n.(*ast.ReturnStmt); !ok {
			return false
		}
	}
	for _, s := range b.Succs {
		if !u.isPureExit(s) {
			return false
		}
	}
	return true
}

// checkTails flags parking operations and continuation invocations that are
// not in tail position.
func (u *progUnit) checkTails() {
	reach := u.g.Reachable()
	for _, b := range u.g.Blocks {
		if !reach[b] {
			continue
		}
		for i, n := range b.Nodes {
			es, ok := n.(*ast.ExprStmt)
			if !ok {
				continue
			}
			call, ok := es.X.(*ast.CallExpr)
			if !ok {
				continue
			}
			if name, _, ok := parkingCall(u.pass, call); ok {
				if !u.inTail(b, i) {
					u.pass.Reportf(call.Pos(),
						"parking operation %s must be the last action on every path: code after it races the armed resume (CPS tail-call contract)", name)
				}
			} else if name, ok := contVarCall(u.pass, call); ok {
				if !u.inTail(b, i) {
					u.pass.Reportf(call.Pos(),
						"continuation %s() must be invoked in tail position: it resumes the rest of the body, so nothing may follow it", name)
				}
			}
		}
	}
}

// checkBoundOnce flags continuation arguments allocated per chunk: closure
// literals (or method values) passed to a parking op inside a loop or a
// self-recursive closure, and locals whose reaching definition is a closure
// built inside the loop.
func (u *progUnit) checkBoundOnce(encl []*ast.FuncLit, selfRec map[*ast.FuncLit]bool) {
	inRecursion := false
	for _, lit := range encl {
		if selfRec[lit] {
			inRecursion = true
			break
		}
	}
	var rd *ReachingDefs // built lazily; most units have no ident continuations
	reach := u.g.Reachable()
	for _, b := range u.g.Blocks {
		if !reach[b] {
			continue
		}
		for i, n := range b.Nodes {
			es, ok := n.(*ast.ExprStmt)
			if !ok {
				continue
			}
			call, ok := es.X.(*ast.CallExpr)
			if !ok {
				continue
			}
			name, cont, ok := parkingCall(u.pass, call)
			if !ok {
				continue
			}
			perChunk := u.cycles[b] || inRecursion
			switch arg := cont.(type) {
			case *ast.FuncLit:
				if perChunk {
					u.pass.Reportf(arg.Pos(),
						"continuation closure for %s is allocated per chunk; bind it once per rank as a method value on the loop's state struct", name)
				}
			case *ast.SelectorExpr:
				if sel, ok := u.pass.Info.Selections[arg]; ok && sel.Kind() == types.MethodVal && perChunk {
					u.pass.Reportf(arg.Pos(),
						"method value %s for %s is allocated per chunk; store it once in a field and pass the field", arg.Sel.Name, name)
				}
			case *ast.Ident:
				v := identVar(u.pass.Info, arg)
				if v == nil {
					break
				}
				if rd == nil {
					rd = NewReachingDefs(u.g, u.pass.Info, nil)
				}
				for _, def := range rd.Reaching(b, i, v) {
					lit := defFuncLit(def, v, u.pass.Info)
					if lit == nil {
						continue
					}
					if within(lit, call) {
						continue // the closure is its own handle, allocated once
					}
					if db := u.nodeBlk[def]; db != nil && u.cycles[db] {
						u.pass.Reportf(arg.Pos(),
							"continuation %s passed to %s is rebuilt every iteration (defined at %s); bind it once per rank", arg.Name, name, u.pass.Fset.Position(def.Pos()))
					}
				}
			}
		}
	}
}

// defFuncLit extracts the closure literal a definition node assigns to v.
func defFuncLit(def ast.Node, v *types.Var, info *types.Info) *ast.FuncLit {
	pick := func(lhs, rhs []ast.Expr) *ast.FuncLit {
		if len(lhs) != len(rhs) {
			return nil
		}
		for i := range lhs {
			if id, ok := lhs[i].(*ast.Ident); ok && identVar(info, id) == v {
				if lit, ok := rhs[i].(*ast.FuncLit); ok {
					return lit
				}
			}
		}
		return nil
	}
	switch def := def.(type) {
	case *ast.AssignStmt:
		return pick(def.Lhs, def.Rhs)
	case *ast.ValueSpec:
		var lhs []ast.Expr
		for _, n := range def.Names {
			lhs = append(lhs, n)
		}
		return pick(lhs, def.Values)
	}
	return nil
}

// within reports whether inner's position lies inside outer.
func within(outer, inner ast.Node) bool {
	return outer.Pos() <= inner.Pos() && inner.End() <= outer.End()
}

// checkArmed runs a forward may-analysis of armed frames: after a receiver
// is armed on a path, writing any of its program-frame fields (or re-arming)
// before a disarm is a contract violation.
func (u *progUnit) checkArmed() {
	type fact = map[*types.Var]bool
	in := map[*Block]fact{u.g.Entry: {}}
	clone := func(f fact) fact {
		g := make(fact, len(f))
		for v := range f {
			g[v] = true
		}
		return g
	}

	// frameWrite classifies an assignment LHS: the armed receiver variable
	// and whether the write arms (armed = true), disarms (armed = false), or
	// mutates another frame field.
	type writeKind int
	const (
		wNone writeKind = iota
		wArm
		wDisarm
		wField
	)
	classify := func(lhs, rhs ast.Expr) (*types.Var, writeKind, string) {
		sel, ok := lhs.(*ast.SelectorExpr)
		if !ok || !isProcProgFrame(u.pass, sel) {
			return nil, wNone, ""
		}
		root := rootIdent(sel.X)
		if root == nil {
			return nil, wNone, ""
		}
		v := identVar(u.pass.Info, root)
		if v == nil {
			return nil, wNone, ""
		}
		if sel.Sel.Name == "armed" || sel.Sel.Name == "inline" {
			if id, ok := rhs.(*ast.Ident); ok && id.Name == "false" {
				return v, wDisarm, sel.Sel.Name
			}
			if sel.Sel.Name == "inline" {
				return v, wNone, ""
			}
			return v, wArm, sel.Sel.Name
		}
		return v, wField, sel.Sel.Name
	}

	report := func(pos ast.Node, field string) {
		u.pass.Reportf(pos.Pos(),
			"program frame field %s written while a resume is armed; the kernel owes the armed continuation its queue position", field)
	}

	transfer := func(f fact, n ast.Node, emit bool) {
		switch n := n.(type) {
		case *ast.AssignStmt:
			rhs := func(i int) ast.Expr {
				if len(n.Rhs) == len(n.Lhs) {
					return n.Rhs[i]
				}
				return n.Rhs[0]
			}
			for i, lhs := range n.Lhs {
				v, kind, field := classify(lhs, rhs(i))
				switch kind {
				case wArm:
					if emit && f[v] {
						report(lhs, field)
					}
					f[v] = true
				case wDisarm:
					delete(f, v)
				case wField:
					if emit && f[v] {
						report(lhs, field)
					}
				}
			}
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "schedContAt" {
					if root := rootIdent(sel.X); root != nil {
						if v := identVar(u.pass.Info, root); v != nil {
							if emit && f[v] {
								report(n, "armed")
							}
							f[v] = true
						}
					}
				}
			}
		}
	}

	// Solve to fixpoint, then one emitting pass in block order.
	work := []*Block{u.g.Entry}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		out := clone(in[b])
		for _, n := range b.Nodes {
			transfer(out, n, false)
		}
		for _, s := range b.Succs {
			sin := in[s]
			if sin == nil {
				in[s] = clone(out)
				work = append(work, s)
				continue
			}
			changed := false
			for v := range out {
				if !sin[v] {
					sin[v] = true
					changed = true
				}
			}
			if changed {
				work = append(work, s)
			}
		}
	}
	for _, b := range u.g.Blocks {
		f := in[b]
		if f == nil {
			continue
		}
		f = clone(f)
		for _, n := range b.Nodes {
			transfer(f, n, true)
		}
	}
}

// parkingCall reports whether call is a parking explicit-resume operation:
// a function or method whose name ends in Then, declared in a sim-driven
// package, returning nothing, whose final parameter is the continuation
// func(). Returns the op name and the continuation argument.
func parkingCall(pass *Pass, call *ast.CallExpr) (string, ast.Expr, bool) {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj = pass.Info.Uses[fun]
	case *ast.SelectorExpr:
		obj = pass.Info.Uses[fun.Sel]
	default:
		return "", nil, false
	}
	fn, ok := obj.(*types.Func)
	if !ok || !strings.HasSuffix(fn.Name(), "Then") {
		return "", nil, false
	}
	if fn.Pkg() == nil || !isSimDriven(fn.Pkg().Path()) {
		return "", nil, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() != 0 || sig.Variadic() {
		return "", nil, false
	}
	np := sig.Params().Len()
	if np == 0 || !isNullaryFunc(sig.Params().At(np-1).Type()) {
		return "", nil, false
	}
	if len(call.Args) != np {
		return "", nil, false
	}
	return fn.Name(), call.Args[np-1], true
}

// contVarCall reports whether call invokes a stored func() continuation: the
// callee is a variable (local, parameter, or struct field) of type func().
func contVarCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if v, ok := pass.Info.Uses[fun].(*types.Var); ok && isNullaryFunc(v.Type()) {
			return fun.Name, true
		}
	case *ast.SelectorExpr:
		sel, ok := pass.Info.Selections[fun]
		if !ok || sel.Kind() != types.FieldVal {
			return "", false
		}
		if isNullaryFunc(sel.Obj().Type()) {
			return fun.Sel.Name, true
		}
	}
	return "", false
}

// isNullaryFunc reports whether t is func() — no parameters, no results.
func isNullaryFunc(t types.Type) bool {
	sig, ok := t.Underlying().(*types.Signature)
	return ok && sig.Params().Len() == 0 && sig.Results().Len() == 0
}

// checkRegisterProg enforces the single-transcription discipline at
// registration sites: RegisterProg* takes a named package-level function.
func checkRegisterProg(pass *Pass, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var obj types.Object
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			obj = pass.Info.Uses[fun]
		case *ast.SelectorExpr:
			obj = pass.Info.Uses[fun.Sel]
		}
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil || !isSimDriven(fn.Pkg().Path()) {
			return true
		}
		if strings.HasPrefix(fn.Name(), "RegisterProg") && len(call.Args) >= 2 {
			if !isNamedFuncRef(pass, call.Args[1]) {
				pass.Reportf(call.Args[1].Pos(),
					"%s argument must be a named package-level function: the derived blocking form must reference the same single transcription", fn.Name())
			}
		}
		return true
	})
}

// isNamedFuncRef reports whether e references a declared function (not a
// closure or a variable of function type).
func isNamedFuncRef(pass *Pass, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		_, ok := pass.Info.Uses[e].(*types.Func)
		return ok
	case *ast.SelectorExpr:
		_, ok := pass.Info.Uses[e.Sel].(*types.Func)
		return ok
	}
	return false
}
