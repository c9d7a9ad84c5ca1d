// Package walpath enforces the two halves of the WAL write invariant
// that group commit introduced:
//
//  1. env.Storage.Append / AppendBatch are called only from paxos/wal.go.
//     The walWriter there is the single flush authority — it implements
//     group commit (batch coalescing, ordered completion), and a
//     direct Storage append anywhere else silently bypasses group
//     commit, reordering durability against the records the writer is
//     still holding. Suppress an intentional direct call (e.g. a
//     measurement harness) with //walpath:direct.
//
//  2. Every implementation of Append/AppendBatch (any function of that
//     name taking a func(error) completion parameter) must complete its
//     callback on all control-flow paths. The engine acks proposals only
//     after durability, so an implementation path that drops the done
//     callback wedges the WAL-before-ack pipeline forever — the crash-
//     during-checkpoint hang of PR 2 was exactly a lost completion. The
//     check is syntactic and best-effort: a path is satisfied once it
//     reaches a statement that mentions the callback (invoking it,
//     forwarding it into another call or closure, or nil-guarding it);
//     flagged are returns — and fall-off ends — reachable without ever
//     touching it. Suppress a deliberate drop (completions that die with
//     a crashed incarnation) with a //walpath:drops comment on the
//     function declaration.
package walpath

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"

	"robuststore/internal/analysis"
)

// Analyzer is the walpath pass.
var Analyzer = &analysis.Analyzer{
	Name: "walpath",
	Doc:  "confine env.Storage appends to paxos/wal.go and require done callbacks on every path",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		fname := filepath.Base(pass.Fset.Position(file.Pos()).Filename)
		inWAL := strings.HasSuffix(pass.Pkg.Path(), "paxos") && fname == "wal.go"
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if !inWAL {
					checkDirectAppend(pass, file, n)
				}
			case *ast.FuncDecl:
				checkDoneOnAllPaths(pass, file, n)
			}
			return true
		})
	}
	return nil
}

// checkDirectAppend flags x.Append / x.AppendBatch where x's static type
// is the env.Storage interface, outside paxos/wal.go.
func checkDirectAppend(pass *analysis.Pass, file *ast.File, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Append" && sel.Sel.Name != "AppendBatch") {
		return
	}
	tv, ok := pass.TypesInfo.Types[sel.X]
	if !ok || !isEnvStorage(tv.Type) {
		return
	}
	if analysis.Suppressed(pass.Fset, file, call.Pos(), "walpath") {
		return
	}
	pass.Report(call.Pos(),
		"direct env.Storage.%s outside paxos/wal.go bypasses the group-commit walWriter; route the record through it or annotate //walpath:direct",
		sel.Sel.Name)
}

// isEnvStorage reports whether t (or its pointee) is the named interface
// type Storage of a package named env — the real internal/env or a
// fixture stand-in.
func isEnvStorage(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Storage" && obj.Pkg() != nil && obj.Pkg().Name() == "env"
}

// checkDoneOnAllPaths applies rule 2 to one function declaration.
func checkDoneOnAllPaths(pass *analysis.Pass, file *ast.File, fd *ast.FuncDecl) {
	if fd.Body == nil || (fd.Name.Name != "Append" && fd.Name.Name != "AppendBatch") {
		return
	}
	done := completionParam(pass, fd)
	if done == nil {
		return
	}
	if analysis.Suppressed(pass.Fset, file, fd.Pos(), "walpath") {
		return
	}
	w := &pathWalker{pass: pass, done: done}
	st := w.block(fd.Body.List, pathState{})
	if !st.safe && !st.terminated {
		pass.Report(fd.Body.Rbrace,
			"%s can fall off the end without completing its %s callback; every path must invoke or forward it (or annotate //walpath:drops)",
			fd.Name.Name, done.Name())
	}
}

// completionParam returns the func(error) parameter of fd, if any.
func completionParam(pass *analysis.Pass, fd *ast.FuncDecl) types.Object {
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			obj := pass.TypesInfo.ObjectOf(name)
			if obj == nil {
				continue
			}
			sig, ok := obj.Type().(*types.Signature)
			if !ok || sig.Results().Len() != 0 || sig.Params().Len() != 1 {
				continue
			}
			if named, ok := sig.Params().At(0).Type().(*types.Named); ok &&
				named.Obj().Name() == "error" && named.Obj().Pkg() == nil {
				return obj
			}
		}
	}
	return nil
}

// pathState tracks one straight-line execution prefix: safe once a
// statement touching the callback has executed, terminated once control
// cannot fall through (return/panic already handled).
type pathState struct {
	safe       bool
	terminated bool
}

type pathWalker struct {
	pass *analysis.Pass
	done types.Object
}

// mentions reports whether the subtree references the done parameter.
func (w *pathWalker) mentions(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok && w.pass.TypesInfo.ObjectOf(id) == w.done {
			found = true
		}
		return !found
	})
	return found
}

// block folds the statements of one block over the incoming state.
func (w *pathWalker) block(stmts []ast.Stmt, st pathState) pathState {
	for _, s := range stmts {
		st = w.stmt(s, st)
	}
	return st
}

func (w *pathWalker) stmt(s ast.Stmt, st pathState) pathState {
	if st.terminated {
		return st
	}
	switch s := s.(type) {
	case *ast.ReturnStmt:
		if !st.safe && !w.mentions(s) {
			w.pass.Report(s.Pos(),
				"return without completing the %s callback; every path must invoke or forward it (or annotate //walpath:drops)",
				w.done.Name())
		}
		st.terminated = true
	case *ast.ExprStmt:
		if w.mentions(s) {
			st.safe = true
		}
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				st.terminated = true
			}
		}
	case *ast.DeferStmt, *ast.GoStmt:
		if w.mentions(s) {
			st.safe = true // a deferred/spawned completion covers all later paths
		}
	case *ast.AssignStmt, *ast.DeclStmt, *ast.SendStmt:
		if w.mentions(s) {
			st.safe = true // forwarded into a field, variable or channel
		}
	case *ast.BlockStmt:
		st = w.block(s.List, st)
	case *ast.LabeledStmt:
		st = w.stmt(s.Stmt, st)
	case *ast.IfStmt:
		if s.Init != nil {
			st = w.stmt(s.Init, st)
		}
		if w.mentions(s.Cond) {
			st.safe = true // a nil-guard: the caller opted out of completion
		}
		thenSt := w.block(s.Body.List, st)
		elseSt := st
		if s.Else != nil {
			elseSt = w.stmt(s.Else, st)
		}
		st.safe = thenSt.safe && elseSt.safe
		st.terminated = thenSt.terminated && elseSt.terminated
		// A branch that terminated is not the fall-through path; if only
		// one side continues, its state is what flows on.
		if thenSt.terminated && !elseSt.terminated {
			st.safe = elseSt.safe
		}
		if elseSt.terminated && !thenSt.terminated {
			st.safe = thenSt.safe
		}
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		st = w.branches(s, st)
	case *ast.ForStmt:
		if s.Init != nil {
			st = w.stmt(s.Init, st)
		}
		bodySt := w.block(s.Body.List, st)
		if s.Cond == nil && bodySt.terminated {
			// for{} whose every exit is a return/panic: nothing falls
			// through, and returns inside were already checked.
			st.terminated = true
		}
		if w.mentions(s.Body) {
			// A loop that touches the callback is the fan-out idiom
			// (attach done to the last record of a batch) — inherently
			// conditional per iteration, so a mention anywhere in the
			// body counts; trust that the zero-iteration case was peeled
			// off by an earlier guard.
			st.safe = true
		}
	case *ast.RangeStmt:
		w.block(s.Body.List, st) // check returns inside
		if w.mentions(s.Body) {
			st.safe = true // forwarding loop, as above
		}
	}
	return st
}

// branches folds a switch/type-switch/select: the construct guarantees
// the callback only if every clause does and (for switches) a default
// clause exists.
func (w *pathWalker) branches(s ast.Stmt, st pathState) pathState {
	var body *ast.BlockStmt
	hasDefault := false
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			st = w.stmt(s.Init, st)
		}
		if s.Tag != nil && w.mentions(s.Tag) {
			st.safe = true
		}
		body = s.Body
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			st = w.stmt(s.Init, st)
		}
		body = s.Body
	case *ast.SelectStmt:
		body = s.Body
	}
	allSafe, allTerm := true, true
	for _, c := range body.List {
		var stmts []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
			for _, e := range c.List {
				if w.mentions(e) {
					st.safe = true
				}
			}
			stmts = c.Body
		case *ast.CommClause:
			if c.Comm == nil {
				hasDefault = true
			} else {
				st = w.stmt(c.Comm, st)
			}
			stmts = c.Body
		}
		cs := w.block(stmts, st)
		allSafe = allSafe && cs.safe
		allTerm = allTerm && cs.terminated
	}
	if _, isSelect := s.(*ast.SelectStmt); isSelect {
		hasDefault = true // a select blocks until some clause runs
	}
	if hasDefault && len(body.List) > 0 {
		st.safe = st.safe || allSafe
		st.terminated = st.terminated || allTerm
	}
	return st
}
