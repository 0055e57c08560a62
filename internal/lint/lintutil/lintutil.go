// Package lintutil holds the path gates and small go/types helpers the
// gsqlvet analyzers share. The gates are the single place the module's
// invariant boundaries are spelled out: which packages are on the
// request path (must propagate ctx), which produce results (must stay
// deterministic), and which own the worker budget.
package lintutil

import (
	"go/ast"
	"go/types"
	"strings"
)

// ModulePath is this module's import-path prefix.
const ModulePath = "graphsql"

// RequestPathPackages are the packages every request flows through;
// code here must thread the caller's context rather than detaching a
// fresh one, or cancellation silently stops propagating.
var RequestPathPackages = []string{
	ModulePath,
	ModulePath + "/internal/engine",
	ModulePath + "/internal/exec",
	ModulePath + "/internal/graph",
	ModulePath + "/internal/server",
	ModulePath + "/internal/core",
}

// ResultPathPackages are the packages whose output feeds query results
// or the pinned wire encoding; the bit-identical-at-every-worker-count
// guarantee lives here, so map iteration order must not leak into what
// they produce.
var ResultPathPackages = []string{
	ModulePath,
	ModulePath + "/internal/engine",
	ModulePath + "/internal/exec",
	ModulePath + "/internal/graph",
	ModulePath + "/internal/core",
	ModulePath + "/internal/storage",
	ModulePath + "/internal/expr",
	ModulePath + "/internal/plan",
	ModulePath + "/internal/analyze",
	ModulePath + "/internal/sql",
	ModulePath + "/internal/wire",
}

// BudgetedPackages are the packages whose concurrency must flow through
// internal/par's worker budget instead of bare goroutine spawns, so the
// admission scheduler's per-query grants stay meaningful. The daemon
// binary is included: it runs in the same process as the scheduler, and
// its accept/listener goroutines are the sanctioned allowlist cases.
var BudgetedPackages = []string{
	ModulePath,
	ModulePath + "/internal/engine",
	ModulePath + "/internal/exec",
	ModulePath + "/internal/graph",
	ModulePath + "/internal/core",
	ModulePath + "/internal/server",
	ModulePath + "/cmd/gsqld",
}

// TracePackage is the span recorder's import path.
const TracePackage = ModulePath + "/internal/trace"

// FaultPackage is the fault-injection framework's import path.
const FaultPackage = ModulePath + "/internal/fault"

// InPackages reports whether path is one of the listed packages or a
// subpackage of one. The bare module path matches only the root facade
// package itself — every package in the module is its subpackage, and
// the gates name specific subtrees, not the world.
func InPackages(path string, pkgs []string) bool {
	for _, p := range pkgs {
		if path == p {
			return true
		}
		if p != ModulePath && strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// IsPkgFunc reports whether the call invokes the named package-level
// function of the package at pkgPath (resolved through the
// type-checker, so aliases and dot-imports are seen through).
func IsPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath string, names ...string) bool {
	var id *ast.Ident
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		id = fn.Sel
	case *ast.Ident:
		id = fn
	default:
		return false
	}
	obj, ok := info.Uses[id]
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != pkgPath {
		return false
	}
	if _, isFunc := obj.(*types.Func); !isFunc {
		return false
	}
	for _, n := range names {
		if obj.Name() == n {
			return true
		}
	}
	return false
}

// NamedFromPackage unwraps t to a named (or aliased) type declared in
// the package at pkgPath, seeing through pointers; nil if it is not
// one.
func NamedFromPackage(t types.Type, pkgPath string) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != pkgPath {
		return nil
	}
	return named
}
