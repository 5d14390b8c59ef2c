package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// NewLockBlock builds the lockblock pass: no sync.Mutex/RWMutex held
// across a blocking operation — a wire RPC (any method named Call whose
// first parameter is a context.Context), a channel send or receive, a
// blocking select, or time.Sleep — in the daemon packages. Holding a
// lock across the fabric is the classic distributed-deadlock shape: the
// callee may need the same lock (directly, or via a callback through
// the same daemon) and the whole quorum wedges.
//
// The scan is per-function on the shared lock-state walker
// (lockwalk.go), with lock state keyed by the receiver expression
// (s.mu): branches run on a copy of the state, defer mu.Unlock() leaves
// the lock held to the end of the function, and function literals are
// scanned as independent roots with no lock held. Calls into functions
// that themselves block (transitively, across packages) count as
// blocking at the call site. A select clause's channel and value
// expressions are evaluated before the select picks a case, so a
// blocking call in them is reported even when the select has a default.
func NewLockBlock() *Pass {
	p := &Pass{
		Name: "lockblock",
		Doc:  "no mutex held across wire calls, channel operations, or time.Sleep in daemon packages",
		Scope: inPackages(
			"repro/internal/mon",
			"repro/internal/mds",
			"repro/internal/rados",
			"repro/internal/paxos",
		),
	}
	var (
		cached   *Index
		blocking map[string]string
	)
	p.Run = func(pkg *Package, idx *Index) []Diagnostic {
		if idx != cached {
			blocking = blockingSummaries(idx)
			cached = idx
		}
		s := &lockScanner{pkg: pkg, pass: p.Name, blocking: blocking}
		w := &lockWalker[lockState]{pkg: pkg, lock: trackLock, call: s.call, block: s.report}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
					w.walkRoot(fd.Body, lockState{}, func() lockState { return lockState{} })
				}
			}
		}
		return s.diags
	}
	return p
}

// lockState maps a lock's receiver expression to where it was acquired.
type lockState map[string]token.Pos

func (ls lockState) clone() lockState {
	out := make(lockState, len(ls))
	for k, v := range ls {
		out[k] = v
	}
	return out
}

// trackLock is the lockState walker hook: a Lock (acquire) of lockExpr
// at call adds it, an Unlock removes it.
func trackLock(call *ast.CallExpr, lockExpr ast.Expr, acquire bool, held lockState) {
	key := types.ExprString(lockExpr)
	if acquire {
		held[key] = call.Pos()
	} else {
		delete(held, key)
	}
}

type lockScanner struct {
	pkg      *Package
	pass     string
	blocking map[string]string
	diags    []Diagnostic
}

// report flags a blocking operation if any lock is held across it.
func (s *lockScanner) report(pos token.Pos, what string, held lockState) {
	if len(held) == 0 {
		return
	}
	names := make([]string, 0, len(held))
	for k := range held {
		names = append(names, k)
	}
	sort.Strings(names)
	s.diags = append(s.diags, Diagnostic{
		Pos:  s.pkg.position(pos),
		Pass: s.pass,
		Message: fmt.Sprintf("%s held across %s (acquired at line %d)",
			strings.Join(names, ", "), what, s.pkg.position(held[names[0]]).Line),
	})
}

// call reports a blocking call: time.Sleep, a wire Call, or a call
// into a function that blocks.
func (s *lockScanner) call(call *ast.CallExpr, held lockState) {
	if len(held) == 0 {
		return
	}
	fn := Callee(s.pkg.Info, call)
	if fn == nil {
		return
	}
	full := fn.FullName()
	switch {
	case full == "time.Sleep":
		s.report(call.Pos(), "time.Sleep", held)
	case isWireCall(fn):
		s.report(call.Pos(), "blocking call "+full, held)
	case s.blocking[full] != "":
		s.report(call.Pos(), fmt.Sprintf("call to %s (which blocks on %s)", full, s.blocking[full]), held)
	}
}

const (
	opLock = iota + 1
	opUnlock
)

// lockOp classifies mu.Lock/RLock/Unlock/RUnlock on a sync.Mutex or
// sync.RWMutex, returning the receiver expression.
func lockOp(pkg *Package, call *ast.CallExpr) (int, ast.Expr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return 0, nil
	}
	var op int
	switch sel.Sel.Name {
	case "Lock", "RLock":
		op = opLock
	case "Unlock", "RUnlock":
		op = opUnlock
	default:
		return 0, nil
	}
	t := pkg.Info.TypeOf(sel.X)
	if t == nil {
		return 0, nil
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return 0, nil
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return 0, nil
	}
	if obj.Name() != "Mutex" && obj.Name() != "RWMutex" {
		return 0, nil
	}
	return op, sel.X
}

// isWireCall matches methods named Call taking a context.Context first:
// wire.Network.Call, the paxos Transport interface, and anything shaped
// like them.
func isWireCall(fn *types.Func) bool {
	if fn.Name() != "Call" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Params().Len() > 0 && isContextType(sig.Params().At(0).Type())
}

// blockingSummaries computes, to a fixpoint over every loaded package,
// which functions can block: a direct blocking operation in the body
// (outside function literals and go statements), or a call to a
// blocking function. The map value says why. Functions are visited in
// name order, so the callee a reason names is the same on every run.
func blockingSummaries(idx *Index) map[string]string {
	names := sortedDeclNames(idx)
	sums := make(map[string]string)
	for _, name := range names {
		if why := directBlockReason(idx.decls[name]); why != "" {
			sums[name] = why
		}
	}
	for {
		changed := false
		for _, name := range names {
			if sums[name] != "" {
				continue
			}
			fd := idx.decls[name]
			why := ""
			ast.Inspect(fd.Decl.Body, func(n ast.Node) bool {
				if why != "" {
					return false
				}
				switch x := n.(type) {
				case *ast.FuncLit, *ast.GoStmt:
					return false
				case *ast.CallExpr:
					if fn := Callee(fd.Pkg.Info, x); fn != nil && sums[fn.FullName()] != "" {
						why = fn.Name()
					}
				}
				return true
			})
			if why != "" {
				sums[name] = why
				changed = true
			}
		}
		if !changed {
			return sums
		}
	}
}

func directBlockReason(fd FuncDecl) string {
	why := ""
	ast.Inspect(fd.Decl.Body, func(n ast.Node) bool {
		if why != "" {
			return false
		}
		switch x := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.SendStmt:
			why = "a channel send"
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				why = "a channel receive"
			}
		case *ast.SelectStmt:
			if isBlockingSelect(x) {
				why = "a select"
			}
		case *ast.CallExpr:
			if fn := Callee(fd.Pkg.Info, x); fn != nil {
				if fn.FullName() == "time.Sleep" {
					why = "time.Sleep"
				} else if isWireCall(fn) {
					why = fn.FullName()
				}
			}
		}
		return true
	})
	return why
}
