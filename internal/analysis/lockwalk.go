package analysis

import (
	"go/ast"
	"go/token"
)

// lockWalker is the flow-sensitive statement walker shared by the
// lock-state passes (lockblock, fieldguard, lockorder, rpcflow). It owns
// the traversal rules; a pass supplies the state type S and hooks for
// what it does at each event.
//
//   - Branches — if/else arms, loop bodies, switch and select clauses —
//     run on a clone of the state, so an early-unlock-and-return path
//     does not poison the fall-through path.
//   - defer and go evaluate only their arguments here. A deferred Unlock
//     therefore leaves the lock held to the end of the function, which
//     is exactly what it does at runtime; a spawned body runs on its own
//     stack.
//   - Function literals are skipped in place. walkRoot scans each one as
//     its own root with a fresh state, unless a hook ran it synchronously
//     through inline first.
//   - A select clause's own channel operation belongs to the select (the
//     block hook sees a select without default as one blocking
//     operation); only its operands are walked, as are the clause body's
//     statements.
//
// Nil hooks are no-ops.
type lockWalker[S interface{ clone() S }] struct {
	pkg *Package
	// lock sees mu.Lock/RLock (acquire) and mu.Unlock/RUnlock on a
	// sync.Mutex or sync.RWMutex; lockExpr is the mutex expression.
	lock func(call *ast.CallExpr, lockExpr ast.Expr, acquire bool, st S)
	// call sees every other call, before its operands are walked.
	call func(call *ast.CallExpr, st S)
	// access sees every selector expression.
	access func(sel *ast.SelectorExpr, st S)
	// block sees each blocking channel operation: "channel send",
	// "channel receive", or "blocking select".
	block func(pos token.Pos, what string, st S)

	inlined map[*ast.FuncLit]bool
}

// walkRoot walks a function or literal body from st, then every
// function literal in it that was not inlined as a root of its own,
// starting from fresh().
func (w *lockWalker[S]) walkRoot(body *ast.BlockStmt, st S, fresh func() S) {
	w.stmts(body.List, st)
	var lits []*ast.FuncLit
	ast.Inspect(body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			lits = append(lits, fl)
			return false
		}
		return true
	})
	for _, fl := range lits {
		if !w.inlined[fl] {
			w.walkRoot(fl.Body, fresh(), fresh)
		}
	}
}

// inline walks a function literal that runs before the enclosing call
// returns (sort.Slice and friends) on a clone of the caller's state, and
// keeps walkRoot from scanning it again as a root.
func (w *lockWalker[S]) inline(fl *ast.FuncLit, st S) {
	if w.inlined == nil {
		w.inlined = make(map[*ast.FuncLit]bool)
	}
	w.inlined[fl] = true
	w.stmts(fl.Body.List, st.clone())
}

func (w *lockWalker[S]) stmts(list []ast.Stmt, st S) {
	for _, s := range list {
		w.stmt(s, st)
	}
}

func (w *lockWalker[S]) stmt(s ast.Stmt, st S) {
	switch x := s.(type) {
	case *ast.ExprStmt:
		w.expr(x.X, st)
	case *ast.AssignStmt:
		w.exprs(x.Rhs, st)
		w.exprs(x.Lhs, st)
	case *ast.ReturnStmt:
		w.exprs(x.Results, st)
	case *ast.IncDecStmt:
		w.expr(x.X, st)
	case *ast.SendStmt:
		w.expr(x.Chan, st)
		if w.block != nil {
			w.block(x.Pos(), "channel send", st)
		}
		w.expr(x.Value, st)
	case *ast.DeferStmt:
		w.exprs(x.Call.Args, st)
	case *ast.GoStmt:
		w.exprs(x.Call.Args, st)
	case *ast.BlockStmt:
		w.stmts(x.List, st)
	case *ast.IfStmt:
		if x.Init != nil {
			w.stmt(x.Init, st)
		}
		w.expr(x.Cond, st)
		w.stmts(x.Body.List, st.clone())
		if x.Else != nil {
			w.stmt(x.Else, st.clone())
		}
	case *ast.ForStmt:
		if x.Init != nil {
			w.stmt(x.Init, st)
		}
		if x.Cond != nil {
			w.expr(x.Cond, st)
		}
		body := st.clone()
		w.stmts(x.Body.List, body)
		if x.Post != nil {
			w.stmt(x.Post, body)
		}
	case *ast.RangeStmt:
		w.expr(x.X, st)
		w.stmts(x.Body.List, st.clone())
	case *ast.SwitchStmt:
		if x.Init != nil {
			w.stmt(x.Init, st)
		}
		if x.Tag != nil {
			w.expr(x.Tag, st)
		}
		w.clauses(x.Body, st)
	case *ast.TypeSwitchStmt:
		w.clauses(x.Body, st)
	case *ast.SelectStmt:
		if w.block != nil && isBlockingSelect(x) {
			w.block(x.Pos(), "blocking select", st)
		}
		w.clauses(x.Body, st)
	case *ast.LabeledStmt:
		w.stmt(x.Stmt, st)
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					w.exprs(vs.Values, st)
				}
			}
		}
	}
}

// clauses walks each case or comm clause of a switch or select body on
// its own clone of st.
func (w *lockWalker[S]) clauses(body *ast.BlockStmt, st S) {
	for _, c := range body.List {
		branch := st.clone()
		switch cc := c.(type) {
		case *ast.CaseClause:
			w.stmts(cc.Body, branch)
		case *ast.CommClause:
			if cc.Comm != nil {
				w.comm(cc.Comm, branch)
			}
			w.stmts(cc.Body, branch)
		}
	}
}

// comm walks the operands of a select clause's channel operation.
func (w *lockWalker[S]) comm(s ast.Stmt, st S) {
	switch x := s.(type) {
	case *ast.SendStmt:
		w.expr(x.Chan, st)
		w.expr(x.Value, st)
	case *ast.ExprStmt:
		w.expr(recvOperand(x.X), st)
	case *ast.AssignStmt:
		w.expr(recvOperand(x.Rhs[0]), st)
		w.exprs(x.Lhs, st)
	}
}

// recvOperand strips the receive operator off a (possibly
// parenthesized) receive expression.
func recvOperand(e ast.Expr) ast.Expr {
	if u, ok := ast.Unparen(e).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
		return u.X
	}
	return e
}

func (w *lockWalker[S]) exprs(list []ast.Expr, st S) {
	for _, e := range list {
		w.expr(e, st)
	}
}

// expr walks one expression in evaluation context.
func (w *lockWalker[S]) expr(e ast.Expr, st S) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if op, lockExpr := lockOp(w.pkg, x); op != 0 {
				if w.lock != nil {
					w.lock(x, lockExpr, op == opLock, st)
				}
			} else if w.call != nil {
				w.call(x, st)
			}
		case *ast.SelectorExpr:
			if w.access != nil {
				w.access(x, st)
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && w.block != nil {
				w.block(x.Pos(), "channel receive", st)
			}
		}
		return true
	})
}

// isBlockingSelect reports whether a select has no default clause.
func isBlockingSelect(x *ast.SelectStmt) bool {
	for _, c := range x.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return false
		}
	}
	return true
}
