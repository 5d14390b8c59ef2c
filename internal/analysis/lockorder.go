package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// NewLockOrder builds the lockorder pass: the whole-repo
// lock-acquisition-order graph must be acyclic. A mutex's identity is
// its owning struct type plus field name ("rados.pg.mu"), so two
// daemons acquiring the same pair of locks in opposite orders are one
// cycle even when the acquisitions sit in different packages. An edge
// A -> B is recorded whenever B is acquired while A is held — directly,
// or through up to four synchronous call hops — and every edge carries
// the call-path witness to its Lock call. Self-edges are skipped:
// type-level identity cannot distinguish two instances of one struct,
// and the per-object locks (objEntry.mu) rely on exactly that.
func NewLockOrder() *Pass {
	p := &Pass{
		Name:  "lockorder",
		Doc:   "the cross-package lock-acquisition-order graph must have no cycles",
		Scope: inPrefix("repro/"),
	}
	var (
		cached *Index
		byPkg  map[string][]Diagnostic
	)
	p.Run = func(pkg *Package, idx *Index) []Diagnostic {
		if idx != cached {
			byPkg = lockOrderDiagnostics(p.Name, idx)
			cached = idx
		}
		return byPkg[pkg.Path]
	}
	return p
}

// loEdge is one lock-order edge with its witness: while from was held
// (acquired at fromPos), to was acquired at the end of chain.
type loEdge struct {
	from, to string
	pkg      string
	fromPos  token.Position
	chain    []chainStep
}

func lockOrderDiagnostics(pass string, idx *Index) map[string][]Diagnostic {
	acq := acquireSummaries(idx)
	helpers := fgLockSummaries(idx)

	edges := make(map[[2]string]loEdge)
	addEdge := func(e loEdge) {
		if e.from == e.to {
			return
		}
		k := [2]string{e.from, e.to}
		if _, ok := edges[k]; !ok {
			edges[k] = e
		}
	}

	for _, name := range sortedDeclNames(idx) {
		fd := idx.decls[name]
		s := &loScanner{pkg: fd.Pkg, idx: idx, acq: acq, helpers: helpers, add: addEdge}
		w := &lockWalker[loState]{pkg: fd.Pkg, lock: s.lock, call: s.applyCallee}
		w.stmts(fd.Decl.Body.List, preHeldIdents(fd.Pkg, fd.Decl))
	}

	return lockCycleDiagnostics(pass, edges)
}

// preHeldIdents maps a function's documented entry lock state ("Caller
// holds e.mu", *Locked suffix) from receiver/parameter expressions to
// mutex identities.
func preHeldIdents(pkg *Package, fd *ast.FuncDecl) loState {
	st := make(loState)
	base := func(name string) (string, bool) {
		if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 &&
			fd.Recv.List[0].Names[0].Name == name {
			key, _, ok := structKeyOf(pkg.Info.TypeOf(fd.Recv.List[0].Type))
			return key, ok
		}
		if fd.Type.Params != nil {
			for _, p := range fd.Type.Params.List {
				for _, n := range p.Names {
					if n.Name == name {
						key, _, ok := structKeyOf(pkg.Info.TypeOf(p.Type))
						return key, ok
					}
				}
			}
		}
		return "", false
	}
	for expr := range preHeld(pkg, fd).held {
		dot := strings.LastIndexByte(expr, '.')
		if dot < 0 {
			continue
		}
		if key, ok := base(expr[:dot]); ok {
			st[key+"."+expr[dot+1:]] = pkg.position(fd.Pos())
		}
	}
	return st
}

// loState maps held mutex identities to their acquisition positions.
type loState map[string]token.Position

func (st loState) clone() loState {
	out := make(loState, len(st))
	for k, v := range st {
		out[k] = v
	}
	return out
}

// loScanner supplies the lock-state walker's hooks that turn held state
// plus acquisitions (direct, or via callee summaries) into order edges.
// Only declared function bodies are walked: function literals and go
// bodies run on other stacks and start no edges here.
type loScanner struct {
	pkg     *Package
	idx     *Index
	acq     map[string][]lockAcq
	helpers map[string]fgLockSum
	add     func(loEdge)
}

// lock records an edge from every held mutex to one being acquired.
// Local mutexes have no cross-function identity and are skipped.
func (s *loScanner) lock(call *ast.CallExpr, lockExpr ast.Expr, acquire bool, st loState) {
	ident, ok := lockIdentOf(s.pkg, lockExpr)
	if !ok {
		return
	}
	if !acquire {
		delete(st, ident)
		return
	}
	pos := s.pkg.position(call.Pos())
	for held, heldPos := range st {
		s.add(loEdge{
			from: held, to: ident, pkg: s.pkg.Path,
			fromPos: heldPos,
			chain:   []chainStep{{name: ident, pos: pos}},
		})
	}
	st[ident] = pos
}

// applyCallee handles a call while locks may be held: every mutex the
// callee can acquire (within the hop bound) forms an edge from each
// held lock, and a net lock/unlock helper updates the held state.
func (s *loScanner) applyCallee(call *ast.CallExpr, st loState) {
	fn := Callee(s.pkg.Info, call)
	if fn == nil {
		return
	}
	full := fn.FullName()
	pos := s.pkg.position(call.Pos())
	if len(st) > 0 {
		for _, a := range s.acq[full] {
			for held, heldPos := range st {
				s.add(loEdge{
					from: held, to: a.ident, pkg: s.pkg.Path,
					fromPos: heldPos,
					chain:   append([]chainStep{{name: full, pos: pos}}, a.chain...),
				})
			}
		}
	}
	sum, ok := s.helpers[full]
	if !ok {
		return
	}
	fd, ok := s.idx.DeclOf(fn)
	if !ok {
		return
	}
	_, recvKey, okRecv := receiverOf(fd.Pkg, fd.Decl)
	if !okRecv {
		return
	}
	for _, f := range sum.acquires {
		st[recvKey+"."+f] = pos
	}
	for _, f := range sum.releases {
		delete(st, recvKey+"."+f)
	}
}

// lockCycleDiagnostics runs Tarjan's SCC over the edge set and reports
// one finding per cyclic component, with the shortest cycle through the
// component's smallest identity as the witness.
func lockCycleDiagnostics(pass string, edges map[[2]string]loEdge) map[string][]Diagnostic {
	adj := make(map[string][]string)
	nodes := make(map[string]bool)
	for k := range edges {
		adj[k[0]] = append(adj[k[0]], k[1])
		nodes[k[0]], nodes[k[1]] = true, true
	}
	for _, succ := range adj {
		sort.Strings(succ)
	}

	byPkg := make(map[string][]Diagnostic)
	for _, scc := range stronglyConnected(nodes, adj) {
		if len(scc) < 2 {
			continue // self-edges are skipped at construction
		}
		sort.Strings(scc)
		cycle := shortestCycle(scc[0], scc, adj)
		if len(cycle) == 0 {
			continue
		}
		var (
			path    []string
			related []Related
			details []string
		)
		first := edges[[2]string{cycle[0], cycle[1%len(cycle)]}]
		for i, from := range cycle {
			to := cycle[(i+1)%len(cycle)]
			e := edges[[2]string{from, to}]
			path = append(path, shortName(from))
			details = append(details, fmt.Sprintf("%s then %s via %s", shortName(from), shortName(to), renderChain(e.chain)))
			related = append(related, Related{Pos: e.fromPos, Note: shortName(from) + " held here"})
			related = append(related, relatedOf(e.chain)...)
		}
		path = append(path, shortName(cycle[0]))
		byPkg[first.pkg] = append(byPkg[first.pkg], Diagnostic{
			Pos:  first.chain[len(first.chain)-1].pos,
			Pass: pass,
			Message: fmt.Sprintf("lock-order cycle %s: %s",
				strings.Join(path, " -> "), strings.Join(details, "; ")),
			Related: related,
		})
	}
	return byPkg
}

// stronglyConnected is Tarjan's algorithm, iterative over sorted nodes
// for determinism.
func stronglyConnected(nodes map[string]bool, adj map[string][]string) [][]string {
	names := make([]string, 0, len(nodes))
	for n := range nodes {
		names = append(names, n)
	}
	sort.Strings(names)

	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	var sccs [][]string
	next := 0

	var strong func(v string)
	strong = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for _, n := range names {
		if _, seen := index[n]; !seen {
			strong(n)
		}
	}
	return sccs
}

// shortestCycle BFSes within the component from start back to start,
// returning the node sequence without the repeated endpoint.
func shortestCycle(start string, scc []string, adj map[string][]string) []string {
	in := make(map[string]bool, len(scc))
	for _, n := range scc {
		in[n] = true
	}
	prev := map[string]string{start: ""}
	queue := []string{start}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range adj[v] {
			if !in[w] {
				continue
			}
			if w == start {
				cycle := []string{v}
				for p := prev[v]; p != ""; p = prev[p] {
					cycle = append(cycle, p)
				}
				for i, j := 0, len(cycle)-1; i < j; i, j = i+1, j-1 {
					cycle[i], cycle[j] = cycle[j], cycle[i]
				}
				return cycle
			}
			if _, seen := prev[w]; !seen {
				prev[w] = v
				queue = append(queue, w)
			}
		}
	}
	return nil
}
