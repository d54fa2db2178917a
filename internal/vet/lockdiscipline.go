package vet

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockDiscipline enforces the pipeline's locking rule: no channel send,
// channel receive, storm Emit/EmitDirect, sync.WaitGroup.Wait or
// time.Sleep while a sync.Mutex/RWMutex acquired in the same function is
// still held (the Tracker and trend detector publish outside their shard
// locks for exactly this reason). Non-blocking sends/receives — the comm
// clause of a select with a default case — are exempt, as is
// sync.Cond.Wait, which requires the lock by contract.
//
// Nothing else catches this rule's bug. Moving tr.intake.RUnlock() in
// Tracker.ingest below the TrendBatch emits leaves go vet, go test and
// -race green (today's mailboxes are unbounded, so the emit never blocks);
// only this analyzer reports it.
//
// The analysis is per function and linear: a lock is considered held from
// x.Lock() until x.Unlock() on the same expression (deferred unlocks hold
// to the end of the function). It does not chase locks across calls, so
// an emit one call below the lock is unseen. Disseminator.Execute is the
// case in point: it holds d.mu for the whole call and emits through
// onDoc, flushNotify and evaluateBatch. That is harmless while mailboxes
// are unbounded; with bounded rings a full Calculator ring would hold d.mu,
// and SnapshotStats (/stats) would wait behind it.
var LockDiscipline = &Analyzer{
	Name: "lockdiscipline",
	Doc:  "blocking operations under a mutex held in the same function",
	Run:  runLockDiscipline,
}

func runLockDiscipline(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkLockScopes(pass, fd.Body)
			}
		}
	}
}

func checkLockScopes(pass *Pass, body *ast.BlockStmt) {
	checkLockBody(pass, body)
	ast.Inspect(body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			checkLockScopes(pass, fl.Body)
			return false
		}
		return true
	})
}

// nonBlockingComms returns the set of comm-clause statements (sends and
// receives) that belong to a select with a default case — those never
// block and are the sanctioned way to publish under a lock.
func nonBlockingComms(body *ast.BlockStmt) map[ast.Node]bool {
	ok := map[ast.Node]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		sel, isSel := n.(*ast.SelectStmt)
		if !isSel {
			return true
		}
		hasDefault := false
		for _, c := range sel.Body.List {
			if cc, isCC := c.(*ast.CommClause); isCC && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			return true
		}
		for _, c := range sel.Body.List {
			cc, isCC := c.(*ast.CommClause)
			if !isCC || cc.Comm == nil {
				continue
			}
			ok[cc.Comm] = true
			// A receive comm is an ExprStmt or AssignStmt wrapping the
			// unary receive; mark the receive expression too.
			switch s := cc.Comm.(type) {
			case *ast.ExprStmt:
				ok[s.X] = true
			case *ast.AssignStmt:
				for _, r := range s.Rhs {
					ok[r] = true
				}
			}
		}
		return true
	})
	return ok
}

func checkLockBody(pass *Pass, body *ast.BlockStmt) {
	info := pass.Pkg.Info
	nonBlocking := nonBlockingComms(body)

	held := map[string]bool{}            // lock expression (rendered) -> held
	deferred := map[*ast.CallExpr]bool{} // calls under defer: they run at return, not here

	inspectScope(body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.DeferStmt:
			// A deferred unlock keeps the lock held to the end of the
			// function; mark the call so the CallExpr visit below does not
			// clear the held state when it reaches it.
			deferred[n.Call] = true
		case *ast.CallExpr:
			if deferred[n] {
				return
			}
			if key, op, ok := lockCall(info, n); ok {
				switch op {
				case "Lock", "RLock":
					held[key] = true
				case "Unlock", "RUnlock":
					delete(held, key)
				}
				return
			}
			if anyHeld(held) {
				if isStormEmit(info, n) {
					pass.Reportf(n.Pos(), "storm Emit while %s is held; emit after unlocking (the send can block on the mailbox)", heldName(held))
					return
				}
				if isBlockingCall(info, n) {
					pass.Reportf(n.Pos(), "blocking call while %s is held; release the lock first", heldName(held))
				}
			}
		case *ast.SendStmt:
			if anyHeld(held) && !nonBlocking[n] {
				pass.Reportf(n.Pos(), "channel send while %s is held; send after unlocking or use a select with default", heldName(held))
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && anyHeld(held) && !nonBlocking[n] {
				pass.Reportf(n.Pos(), "channel receive while %s is held; receive after unlocking or use a select with default", heldName(held))
			}
		}
	})
}

func anyHeld(held map[string]bool) bool { return len(held) > 0 }

func heldName(held map[string]bool) string {
	for k := range held {
		if len(held) == 1 {
			return k
		}
	}
	for k := range held {
		return k + " (among others)"
	}
	return "a lock"
}

// lockCall recognises calls to sync.Mutex/RWMutex Lock/RLock/Unlock/RUnlock
// methods and returns a stable key for the receiver expression.
func lockCall(info *types.Info, call *ast.CallExpr) (key, op string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	fn, isFn := info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	// Receiver must be a Mutex or RWMutex (RLock/RUnlock imply RWMutex).
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return "", "", false
	}
	name := typeName(recv.Type())
	if name != "Mutex" && name != "RWMutex" {
		return "", "", false
	}
	return types.ExprString(sel.X), sel.Sel.Name, true
}

// isBlockingCall recognises the well-known blocking calls the pipeline must
// not make under a lock: WaitGroup.Wait and time.Sleep. sync.Cond.Wait is
// deliberately not here — it requires holding the lock.
func isBlockingCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	switch {
	case fn.Pkg().Path() == "sync" && fn.Name() == "Wait" && typeNameOfRecv(fn) == "WaitGroup":
		return true
	case fn.Pkg().Path() == "time" && fn.Name() == "Sleep":
		return true
	}
	return false
}

func typeNameOfRecv(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return ""
	}
	return typeName(recv.Type())
}

func typeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// isStormEmit reports whether call is a storm Collector Emit/EmitDirect.
func isStormEmit(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || !pkgHasSuffix(fn.Pkg().Path(), "internal/storm") {
		return false
	}
	return fn.Name() == "Emit" || fn.Name() == "EmitDirect"
}

// inspectScope walks body in source order without descending into nested
// function literals.
func inspectScope(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}
