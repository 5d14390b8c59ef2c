package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// NewFieldGuard builds the fieldguard pass: a struct field annotated
// `// guarded by mu` (where mu is a sibling sync.Mutex/RWMutex field)
// may only be read or written while that mutex is held, including on
// paths that explicitly Unlock earlier in the same function. For
// structs with exactly one mutex and no annotation, the guard is
// inferred from majority-of-accesses evidence: if at least 3/4 of a
// field's accesses hold the mutex, the minority that do not are
// findings.
//
// The scan is flow-sensitive per function, on the shared lock-state
// walker (lockwalk.go) that lockblock uses, plus two kinds of cross-function
// facts: a callee whose body net-acquires or net-releases a receiver
// mutex (a lock/unlock helper) updates the caller's state at the call
// site, and functions that document an external lock protocol — a
// `*Locked` name suffix, or a "Caller holds x.mu" doc comment — are
// scanned with that mutex pre-held.
func NewFieldGuard() *Pass {
	p := &Pass{
		Name: "fieldguard",
		Doc:  "annotated or inferred mutex-guarded struct fields must be accessed with the mutex held",
		Scope: inPackages(
			"repro/internal/mon",
			"repro/internal/mds",
			"repro/internal/rados",
			"repro/internal/paxos",
			"repro/internal/wire",
		),
	}
	var (
		cached *Index
		byPkg  map[string][]Diagnostic
	)
	p.Run = func(pkg *Package, idx *Index) []Diagnostic {
		if idx != cached {
			byPkg = fieldGuardDiagnostics(p.Name, idx)
			cached = idx
		}
		return byPkg[pkg.Path]
	}
	return p
}

var (
	guardedByRe   = regexp.MustCompile(`guarded by ([A-Za-z_]\w*)`)
	callerHoldsRe = regexp.MustCompile(`[Cc]aller\s+(?:must\s+hold|holds)\s+([A-Za-z_]\w*\.[A-Za-z_]\w*)`)
)

// fgFacts is the whole-program guard table.
type fgFacts struct {
	// guards maps "pkgpath.Type" -> field -> guarding mutex field name,
	// from annotations.
	guards map[string]map[string]string
	// mutexes maps "pkgpath.Type" -> its sync.Mutex/RWMutex field names,
	// in declaration order.
	mutexes map[string][]string
}

// fgDiag tags a diagnostic with the package it belongs to, so the
// per-package Run can hand back only its own findings.
type fgDiag struct {
	pkg string
	d   Diagnostic
}

// fgAccess is one recorded access to a field of a single-mutex struct,
// for majority inference.
type fgAccess struct {
	pkg       *Package
	pos       token.Pos
	structKey string // "pkgpath.Type" of the owning struct
	expr      string // base.field as written
	lockExpr  string // base.mu as the holder key would be written
	held      bool
}

func fieldGuardDiagnostics(pass string, idx *Index) map[string][]Diagnostic {
	facts, factDiags := collectGuardFacts(idx)
	sums := fgLockSummaries(idx)

	all := factDiags
	var accesses []fgAccess
	for _, pkg := range idx.Pkgs {
		s := &fgScanner{pass: pass, pkg: pkg, facts: facts, sums: sums}
		w := s.walker()
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				s.noInfer = strings.HasPrefix(fd.Name.Name, "New") || strings.HasPrefix(fd.Name.Name, "new")
				w.walkRoot(fd.Body, preHeld(pkg, fd), newFgState)
			}
		}
		all = append(all, s.diags...)
		accesses = append(accesses, s.accesses...)
	}
	all = append(all, inferGuards(pass, accesses)...)

	byPkg := make(map[string][]Diagnostic)
	for _, fd := range all {
		byPkg[fd.pkg] = append(byPkg[fd.pkg], fd.d)
	}
	return byPkg
}

// collectGuardFacts parses struct declarations for mutex fields and
// `guarded by` annotations. A guard naming a non-mutex or missing
// sibling is itself a finding: annotations must not rot.
func collectGuardFacts(idx *Index) (*fgFacts, []fgDiag) {
	facts := &fgFacts{
		guards:  make(map[string]map[string]string),
		mutexes: make(map[string][]string),
	}
	var diags []fgDiag
	for _, pkg := range idx.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return true
				}
				key := pkg.Path + "." + ts.Name.Name
				type pending struct {
					fields []string
					guard  string
					pos    token.Pos
				}
				var anns []pending
				for _, field := range st.Fields.List {
					if isMutexType(pkg.Info.TypeOf(field.Type)) {
						for _, name := range field.Names {
							facts.mutexes[key] = append(facts.mutexes[key], name.Name)
						}
						continue
					}
					guard, pos := fieldGuardAnnotation(field)
					if guard == "" || len(field.Names) == 0 {
						continue
					}
					names := make([]string, 0, len(field.Names))
					for _, name := range field.Names {
						names = append(names, name.Name)
					}
					anns = append(anns, pending{fields: names, guard: guard, pos: pos})
				}
				for _, a := range anns {
					if !containsString(facts.mutexes[key], a.guard) {
						diags = append(diags, fgDiag{pkg: pkg.Path, d: Diagnostic{
							Pos:     pkg.position(a.pos),
							Pass:    "fieldguard",
							Message: fmt.Sprintf("guarded-by annotation names %q, which is not a sync.Mutex/RWMutex field of %s", a.guard, ts.Name.Name),
						}})
						continue
					}
					m := facts.guards[key]
					if m == nil {
						m = make(map[string]string)
						facts.guards[key] = m
					}
					for _, fn := range a.fields {
						m[fn] = a.guard
					}
				}
				return true
			})
		}
	}
	return facts, diags
}

// fieldGuardAnnotation extracts the `guarded by <mu>` marker from a
// field's line or doc comment.
func fieldGuardAnnotation(field *ast.Field) (string, token.Pos) {
	for _, cg := range []*ast.CommentGroup{field.Comment, field.Doc} {
		if cg == nil {
			continue
		}
		if m := guardedByRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1], field.Pos()
		}
	}
	return "", token.NoPos
}

func containsString(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex (through
// one pointer).
func isMutexType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// structKeyOf resolves an expression type to its named-struct key
// ("pkgpath.Type"), through one pointer.
func structKeyOf(t types.Type) (string, *types.Named, bool) {
	if t == nil {
		return "", nil, false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", nil, false
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return "", nil, false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return "", nil, false
	}
	return obj.Pkg().Path() + "." + obj.Name(), named, true
}

// structField returns the directly declared (non-promoted) field, or
// nil.
func structField(named *types.Named, name string) *types.Var {
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == name {
			return st.Field(i)
		}
	}
	return nil
}

// preHeld computes the lock state a function starts with: functions
// named *Locked hold every mutex of their receiver, and a "Caller
// holds x.mu" doc comment holds exactly what it names.
func preHeld(pkg *Package, fd *ast.FuncDecl) fgState {
	st := newFgState()
	if strings.HasSuffix(fd.Name.Name, "Locked") {
		if name, key, ok := receiverOf(pkg, fd); ok {
			for _, m := range receiverMutexes(pkg, fd, key) {
				st.held[name+"."+m] = fd.Pos()
			}
		}
	}
	if fd.Doc != nil {
		for _, m := range callerHoldsRe.FindAllStringSubmatch(fd.Doc.Text(), -1) {
			st.held[m[1]] = fd.Pos()
		}
	}
	return st
}

// receiverOf returns the receiver's name and struct key.
func receiverOf(pkg *Package, fd *ast.FuncDecl) (string, string, bool) {
	if fd.Recv == nil || len(fd.Recv.List) != 1 || len(fd.Recv.List[0].Names) != 1 {
		return "", "", false
	}
	name := fd.Recv.List[0].Names[0].Name
	key, _, ok := structKeyOf(pkg.Info.TypeOf(fd.Recv.List[0].Type))
	if !ok || name == "_" {
		return "", "", false
	}
	return name, key, true
}

func receiverMutexes(pkg *Package, fd *ast.FuncDecl, key string) []string {
	var out []string
	t := pkg.Info.TypeOf(fd.Recv.List[0].Type)
	if t == nil {
		return nil
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	for i := 0; i < st.NumFields(); i++ {
		if isMutexType(st.Field(i).Type()) {
			out = append(out, st.Field(i).Name())
		}
	}
	return out
}

// ---- callee lock summaries ----

// fgLockSum records a method's net effect on its receiver's mutexes: a
// lock helper acquires, an unlock helper releases. Balanced bodies
// (including defer-unlock) have no net effect and no summary.
type fgLockSum struct {
	acquires []string
	releases []string
}

// fgLockSummaries scans every method's top-level statements for
// unconditional lock operations on receiver mutexes, so calls to
// lock/unlock helpers update the caller's held state.
func fgLockSummaries(idx *Index) map[string]fgLockSum {
	sums := make(map[string]fgLockSum)
	for name, fd := range idx.decls {
		recvName, _, ok := receiverOf(fd.Pkg, fd.Decl)
		if !ok {
			continue
		}
		acquired := make(map[string]bool)
		released := make(map[string]bool)
		deferred := make(map[string]bool)
		record := func(call *ast.CallExpr, isDefer bool) {
			op, lockExpr := lockOp(fd.Pkg, call)
			if op == 0 {
				return
			}
			sel, ok := ast.Unparen(lockExpr).(*ast.SelectorExpr)
			if !ok {
				return
			}
			base, ok := ast.Unparen(sel.X).(*ast.Ident)
			if !ok || base.Name != recvName {
				return
			}
			f := sel.Sel.Name
			switch {
			case isDefer && op == opUnlock:
				deferred[f] = true
			case op == opLock:
				if released[f] {
					delete(released, f)
				} else {
					acquired[f] = true
				}
			case op == opUnlock:
				if acquired[f] {
					delete(acquired, f)
				} else {
					released[f] = true
				}
			}
		}
		for _, st := range fd.Decl.Body.List {
			switch x := st.(type) {
			case *ast.ExprStmt:
				if call, ok := x.X.(*ast.CallExpr); ok {
					record(call, false)
				}
			case *ast.DeferStmt:
				record(x.Call, true)
			}
		}
		for f := range deferred {
			delete(acquired, f)
		}
		sum := fgLockSum{acquires: sortedKeys(acquired), releases: sortedKeys(released)}
		if len(sum.acquires) > 0 || len(sum.releases) > 0 {
			sums[name] = sum
		}
	}
	return sums
}

func sortedKeys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ---- the flow-sensitive scanner ----

// fgState tracks which lock expressions are held and which were
// explicitly released earlier on this path (for the sharper
// access-after-Unlock message).
type fgState struct {
	held     map[string]token.Pos
	released map[string]token.Pos
}

func newFgState() fgState {
	return fgState{held: make(map[string]token.Pos), released: make(map[string]token.Pos)}
}

func (s fgState) clone() fgState {
	out := fgState{held: make(map[string]token.Pos, len(s.held)), released: make(map[string]token.Pos, len(s.released))}
	for k, v := range s.held {
		out.held[k] = v
	}
	for k, v := range s.released {
		out.released[k] = v
	}
	return out
}

// acquire and release move a lock expression between the held and
// released sets.
func (s fgState) acquire(key string, pos token.Pos) {
	s.held[key] = pos
	delete(s.released, key)
}

func (s fgState) release(key string, pos token.Pos) {
	delete(s.held, key)
	s.released[key] = pos
}

type fgScanner struct {
	pass    string
	pkg     *Package
	facts   *fgFacts
	sums    map[string]fgLockSum
	noInfer bool

	diags    []fgDiag
	accesses []fgAccess
}

// walker wires the scanner into the shared lock-state walker: lock
// operations and lock-helper calls mutate the state, function-literal
// call arguments run synchronously under it, and every field selection
// is checked.
func (s *fgScanner) walker() *lockWalker[fgState] {
	w := &lockWalker[fgState]{pkg: s.pkg, access: s.checkAccess}
	w.lock = func(call *ast.CallExpr, lockExpr ast.Expr, acquire bool, st fgState) {
		if acquire {
			st.acquire(types.ExprString(lockExpr), call.Pos())
		} else {
			st.release(types.ExprString(lockExpr), call.Pos())
		}
	}
	w.call = func(call *ast.CallExpr, st fgState) {
		s.applySummary(call, st)
		for _, a := range call.Args {
			if fl, ok := a.(*ast.FuncLit); ok {
				// A literal passed to an ordinary call (sort.Slice and
				// friends) runs before the call returns, under the
				// caller's locks.
				w.inline(fl, st)
			}
		}
	}
	return w
}

// applySummary updates held state across a call to a lock/unlock
// helper method.
func (s *fgScanner) applySummary(call *ast.CallExpr, st fgState) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn := Callee(s.pkg.Info, call)
	if fn == nil {
		return
	}
	sum, ok := s.sums[fn.FullName()]
	if !ok {
		return
	}
	base := types.ExprString(sel.X)
	for _, f := range sum.acquires {
		st.acquire(base+"."+f, call.Pos())
	}
	for _, f := range sum.releases {
		st.release(base+"."+f, call.Pos())
	}
}

func (s *fgScanner) checkAccess(sel *ast.SelectorExpr, st fgState) {
	key, named, ok := structKeyOf(s.pkg.Info.TypeOf(sel.X))
	if !ok {
		return
	}
	field := sel.Sel.Name
	base := types.ExprString(sel.X)

	if guard := s.facts.guards[key][field]; guard != "" {
		want := base + "." + guard
		if _, held := st.held[want]; !held {
			typeName := key[strings.LastIndexByte(key, '.')+1:]
			msg := fmt.Sprintf("%s.%s accessed without holding %s (field %s of %s is guarded by %s)",
				base, field, want, field, typeName, guard)
			if rel, ok := st.released[want]; ok {
				msg = fmt.Sprintf("%s.%s accessed after %s was unlocked at line %d (field %s of %s is guarded by %s)",
					base, field, want, s.pkg.position(rel).Line, field, typeName, guard)
			}
			s.diags = append(s.diags, fgDiag{pkg: s.pkg.Path, d: Diagnostic{
				Pos:     s.pkg.position(sel.Pos()),
				Pass:    s.pass,
				Message: msg,
			}})
		}
		return
	}

	// Majority inference: only fields of single-mutex structs, and only
	// outside constructors (which initialize before publication).
	if s.noInfer {
		return
	}
	muts := s.facts.mutexes[key]
	if len(muts) != 1 {
		return
	}
	fv := structField(named, field)
	if fv == nil || isMutexType(fv.Type()) {
		return
	}
	lockKey := base + "." + muts[0]
	_, held := st.held[lockKey]
	s.accesses = append(s.accesses, fgAccess{
		pkg:       s.pkg,
		pos:       sel.Pos(),
		structKey: key,
		expr:      base + "." + field,
		lockExpr:  lockKey,
		held:      held,
	})
}

// inferGuards applies the majority rule: a field of a single-mutex
// struct whose accesses hold the mutex at least 3/4 of the time (with
// at least 4 accesses seen) is treated as guarded, and the minority
// accesses are findings.
func inferGuards(pass string, accesses []fgAccess) []fgDiag {
	type group struct {
		total, held int
		minority    []fgAccess
	}
	// Key by struct+field via the access's struct key embedded in
	// lockExpr is not enough: group on the resolved struct field.
	groups := make(map[string]*group)
	for i := range accesses {
		a := &accesses[i]
		k := a.groupKey()
		g := groups[k]
		if g == nil {
			g = &group{}
			groups[k] = g
		}
		g.total++
		if a.held {
			g.held++
		} else {
			g.minority = append(g.minority, *a)
		}
	}
	var out []fgDiag
	for _, g := range groups {
		if g.total < 4 || g.held == g.total || g.held*4 < g.total*3 {
			continue
		}
		for _, a := range g.minority {
			out = append(out, fgDiag{pkg: a.pkg.Path, d: Diagnostic{
				Pos:  a.pkg.position(a.pos),
				Pass: pass,
				Message: fmt.Sprintf("%s accessed without holding %s (inferred guard: %d of %d accesses hold it)",
					a.expr, a.lockExpr, g.held, g.total),
			}})
		}
	}
	return out
}

// groupKey identifies the struct field an access touches, independent
// of the base expression it was reached through.
func (a *fgAccess) groupKey() string {
	field := a.expr[strings.LastIndexByte(a.expr, '.')+1:]
	return a.structKey + "." + field
}
