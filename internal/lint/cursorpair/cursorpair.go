// Package cursorpair implements the gsqlvet analyzer that keeps pull
// cursors and operator trees from leaking. Under the pull executor a
// cursor owns a live operator tree — open trace spans, snapshot
// references, per-operator state — released only by Close. Exhaustion
// and errors close implicitly, but a consumer that abandons a cursor
// early (error between batches, client disconnect, early return) and
// never calls Close keeps the tree alive: its "execute" span reports
// the query as in flight forever and the snapshot columns stay
// reachable. The runtime cannot catch this — there are no finalizers
// by design.
//
// The analyzer tracks every local variable in a request-path package
// assigned from a call that produces a cursor-shaped value —
// exec.Cursor, exec.Operator or the facade's Rows — and requires one
// of:
//
//   - a release covering the whole function: a deferred Close
//     (`defer cur.Close()`, or a deferred closure containing it), or
//   - a release on every path: a positional Close (or Result, which
//     drains and closes) with no return statement between the
//     cursor's first use and that release, or
//   - an ownership handoff: the variable passed to another call,
//     returned, stored into a field or composite literal, or otherwise
//     used outside a method/field selection — the receiving code owns
//     the Close then.
//
// Returns *before* the cursor's first use are not flagged: the
// ubiquitous `cur, err := acquire(); if err != nil { return err }`
// guard runs while the cursor is nil. An acquisition whose result is
// discarded (not assigned, or assigned to _) is always flagged.
package cursorpair

import (
	"go/ast"
	"go/token"
	"go/types"

	"graphsql/internal/lint/analysis"
	"graphsql/internal/lint/lintutil"
)

// Analyzer flags cursors that are acquired but not closed on all paths
// in request-path packages.
var Analyzer = &analysis.Analyzer{
	Name: "cursorpair",
	Run:  run,
}

// releasingMethods are the methods that release the cursor's operator
// tree: Close directly, Result by draining to exhaustion (which closes
// implicitly) and then closing.
var releasingMethods = map[string]bool{"Close": true, "Result": true}

func run(pass *analysis.Pass) error {
	if !lintutil.InPackages(pass.Pkg.Path(), lintutil.RequestPathPackages) {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd.Body)
		}
	}
	return nil
}

// cursorType reports whether t is (a pointer to) one of the tracked
// cursor-shaped types.
func cursorType(t types.Type) bool {
	if named := lintutil.NamedFromPackage(t, lintutil.ModulePath+"/internal/exec"); named != nil {
		name := named.Obj().Name()
		return name == "Cursor" || name == "Operator"
	}
	if named := lintutil.NamedFromPackage(t, lintutil.ModulePath); named != nil {
		return named.Obj().Name() == "Rows"
	}
	return false
}

// acquiresCursor reports whether call produces a cursor as its only or
// first result (the `(cursor, error)` shape).
func acquiresCursor(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		return t.Len() > 0 && cursorType(t.At(0).Type())
	default:
		return cursorType(t)
	}
}

// checkFunc analyzes one function body, function literals included
// (a deferred closure may close a cursor; returns inside literals
// never count against an enclosing cursor).
func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	type acq struct {
		call *ast.CallExpr
		obj  types.Object // nil when the result is discarded
	}
	var acqs []acq

	ast.Inspect(body, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range t.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !acquiresCursor(pass.TypesInfo, call) {
					continue
				}
				// Only the single-call form binds result 0 to Lhs[i];
				// a := f() and a, err := f() both have one rhs.
				if len(t.Rhs) != 1 {
					continue
				}
				switch lhs := t.Lhs[i].(type) {
				case *ast.Ident:
					if lhs.Name == "_" {
						acqs = append(acqs, acq{call: call})
						continue
					}
					obj := pass.TypesInfo.Defs[lhs]
					if obj == nil {
						obj = pass.TypesInfo.Uses[lhs]
					}
					acqs = append(acqs, acq{call: call, obj: obj})
				default:
					// Stored straight into a field or element: an
					// ownership handoff, tracked by the receiving type.
				}
			}
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(t.X).(*ast.CallExpr); ok && acquiresCursor(pass.TypesInfo, call) {
				acqs = append(acqs, acq{call: call})
			}
		}
		return true
	})

	for _, a := range acqs {
		if a.obj == nil {
			pass.Reportf(a.call.Pos(), "cursor is discarded; nothing can Close it")
			continue
		}
		u := usesOf(pass, body, a.obj)
		if u.deferredClose {
			continue
		}
		if u.escapes {
			continue // handed off; the receiver owns the Close
		}
		if len(u.closes) == 0 {
			pass.Reportf(a.call.Pos(),
				"cursor %q is never closed: no Close(/Result) and no handoff in this function (defer %s.Close() after the error check)",
				a.obj.Name(), a.obj.Name())
			continue
		}
		firstClose := u.closes[0]
		for _, p := range u.closes[1:] {
			if p < firstClose {
				firstClose = p
			}
		}
		// Returns before the first use run while the cursor is nil (the
		// acquire-then-check-err guard); returns after it but before the
		// release leak a live tree.
		firstUse := firstClose
		for _, p := range u.uses {
			if p < firstUse {
				firstUse = p
			}
		}
		if ret := returnBetween(body, firstUse, firstClose); ret != token.NoPos {
			pass.Reportf(ret, "return leaks cursor %q acquired at %s: Close it before returning or defer the Close",
				a.obj.Name(), pass.Fset.Position(a.call.Pos()))
		}
	}
}

// cursorUses summarizes how one cursor variable is used in a body.
type cursorUses struct {
	deferredClose bool        // a releasing method runs under defer
	escapes       bool        // used outside a method/field selection
	closes        []token.Pos // positional releasing-method calls
	uses          []token.Pos // method/field selections (Close included)
}

// usesOf classifies every use of obj in body. A use of the identifier
// whose parent is a selector (obj.Method, obj.Field) is a plain use; a
// releasing-method call is a close; anything else — call argument,
// return value, composite literal, assignment, address-of — is an
// escape.
func usesOf(pass *analysis.Pass, body *ast.BlockStmt, obj types.Object) cursorUses {
	var u cursorUses

	isUseOf := func(id *ast.Ident) bool { return pass.TypesInfo.Uses[id] == obj }
	// releaseOn reports whether call is obj.Close() / obj.Result().
	releaseOn := func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return false
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || !releasingMethods[sel.Sel.Name] {
			return false
		}
		id, ok := ast.Unparen(sel.X).(*ast.Ident)
		return ok && isUseOf(id)
	}

	var walk func(n ast.Node, parent ast.Node, inDefer bool)
	walk = func(n ast.Node, parent ast.Node, inDefer bool) {
		if n == nil {
			return
		}
		if d, ok := n.(*ast.DeferStmt); ok {
			if releaseOn(d.Call) {
				u.deferredClose = true
			}
			// defer func() { ... cur.Close() ... }() counts too.
			walk(d.Call, d, true)
			return
		}
		if inDefer && releaseOn(n) {
			u.deferredClose = true
		}
		if id, ok := n.(*ast.Ident); ok && isUseOf(id) {
			if sel, ok := parent.(*ast.SelectorExpr); ok && sel.X == id {
				u.uses = append(u.uses, id.Pos())
			} else {
				u.escapes = true
			}
			return
		}
		if releaseOn(n) {
			u.closes = append(u.closes, n.Pos())
		}
		for _, child := range children(n) {
			walk(child, n, inDefer)
		}
	}
	walk(body, nil, false)
	return u
}

// children returns the direct child nodes of n, in source order.
func children(n ast.Node) []ast.Node {
	var out []ast.Node
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			out = append(out, c)
		}
		return false
	})
	return out
}

// returnBetween returns the position of the first return statement
// strictly between from and to, or NoPos. Returns inside nested
// function literals belong to the literal and are skipped.
func returnBetween(body *ast.BlockStmt, from, to token.Pos) token.Pos {
	found := token.NoPos
	ast.Inspect(body, func(n ast.Node) bool {
		if found != token.NoPos {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		if ret.Pos() > from && ret.Pos() < to {
			found = ret.Pos()
			return false
		}
		return true
	})
	return found
}
