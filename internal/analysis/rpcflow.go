package analysis

import (
	"fmt"
	"go/ast"
	"sort"
	"strings"
)

// NewRPCFlow builds the rpcflow pass, the cross-package overlay of the
// RPC topology on the lock discipline. It reports two shapes:
//
//  1. An RPC reached while any mutex is held, through one or more
//     synchronous call hops — the generalization of lockblock beyond
//     function boundaries. (Direct lock-across-Call in the same body
//     stays lockblock's finding; rpcflow only reports what lockblock
//     cannot see.)
//  2. Synchronous wait-for cycles between daemon handlers: handler H1
//     issues a wire Call whose destination endpoint is served by H2,
//     and following such edges leads back to H1. With every daemon
//     handler occupying its caller's goroutine, such a cycle is a
//     distributed deadlock once the fabric saturates. Relay-protocol
//     edges — the caller marks a boolean field (Forwarded / Replica /
//     Proxied) that the receiving package branches on — are recorded
//     but exempt, since a relayed request never relays again.
func NewRPCFlow() *Pass {
	p := &Pass{
		Name: "rpcflow",
		Doc:  "no RPC reached through call hops while a lock is held, and no synchronous handler wait-for cycles",
		Scope: inPackages(
			"repro/internal/mon",
			"repro/internal/mds",
			"repro/internal/rados",
			"repro/internal/paxos",
			"repro/internal/zlog",
			"repro/internal/wire",
		),
	}
	var (
		cached *Index
		byPkg  map[string][]Diagnostic
	)
	p.Run = func(pkg *Package, idx *Index) []Diagnostic {
		if idx != cached {
			byPkg = rpcFlowDiagnostics(p.Name, idx)
			cached = idx
		}
		return byPkg[pkg.Path]
	}
	return p
}

func rpcFlowDiagnostics(pass string, idx *Index) map[string][]Diagnostic {
	byPkg := make(map[string][]Diagnostic)
	add := func(pkg string, d Diagnostic) {
		byPkg[pkg] = append(byPkg[pkg], d)
	}

	rpcs := rpcSummaries(idx)
	for _, name := range sortedDeclNames(idx) {
		fd := idx.decls[name]
		s := &rfScanner{pass: pass, pkg: fd.Pkg, rpcs: rpcs, add: add}
		s.scanBody(fd.Decl.Body, preHeld(fd.Pkg, fd.Decl))
	}

	eps := listenEndpoints(idx)
	edges := daemonEdges(idx, eps)
	waitForCycles(pass, edges, add)
	return byPkg
}

// ---- part 1: RPC reached under a lock, across call hops ----

// rfScanner runs on the shared lock-state walker with lockblock's
// held state (receiver-expression keys, so local mutexes count too) but
// reports calls into functions that transitively reach a wire Call.
type rfScanner struct {
	pass string
	pkg  *Package
	rpcs map[string]rpcReach
	add  func(pkg string, d Diagnostic)
}

func (s *rfScanner) scanBody(body *ast.BlockStmt, pre fgState) {
	held := lockState{}
	for k := range pre.held {
		held[k] = body.Pos()
	}
	w := &lockWalker[lockState]{pkg: s.pkg, lock: trackLock, call: s.call}
	w.stmts(body.List, held)
}

func (s *rfScanner) call(call *ast.CallExpr, held lockState) {
	if len(held) == 0 {
		return
	}
	fn := Callee(s.pkg.Info, call)
	if fn == nil || isWireCall(fn) {
		return // the direct case is lockblock's finding
	}
	r, ok := s.rpcs[fn.FullName()]
	if !ok {
		return
	}
	chain := append([]chainStep{{name: fn.FullName(), pos: s.pkg.position(call.Pos())}}, r.chain...)
	names := make([]string, 0, len(held))
	for k := range held {
		names = append(names, k)
	}
	sort.Strings(names)
	s.add(s.pkg.Path, Diagnostic{
		Pos:  s.pkg.position(call.Pos()),
		Pass: s.pass,
		Message: fmt.Sprintf("%s held while calling %s, which reaches RPC %s: %s",
			strings.Join(names, ", "), shortName(fn.FullName()), shortName(r.callee), renderChain(chain)),
		Related: relatedOf(chain),
	})
}

// ---- part 2: handler wait-for cycles ----

// waitForCycles reports cycles (including self-loops) over the
// unguarded synchronous handler->handler edges.
func waitForCycles(pass string, edges []daemonEdge, add func(string, Diagnostic)) {
	// Deduplicate to one witness per (from, to); edges arrive sorted so
	// the first witness is position-stable.
	best := make(map[[2]string]daemonEdge)
	nodes := make(map[string]bool)
	adj := make(map[string][]string)
	for _, e := range edges {
		if e.guarded {
			continue
		}
		k := [2]string{e.from, e.to}
		if _, ok := best[k]; ok {
			continue
		}
		best[k] = e
		nodes[e.from], nodes[e.to] = true, true
		adj[e.from] = append(adj[e.from], e.to)
	}

	report := func(cycle []string) {
		var (
			path    []string
			details []string
			related []Related
		)
		first := best[[2]string{cycle[0], cycle[1%len(cycle)]}]
		for i, from := range cycle {
			to := cycle[(i+1)%len(cycle)]
			e := best[[2]string{from, to}]
			path = append(path, shortName(from))
			details = append(details, fmt.Sprintf("%s calls into %s via %s", shortName(from), shortName(to), renderChain(e.chain)))
			related = append(related, relatedOf(e.chain)...)
		}
		path = append(path, shortName(cycle[0]))
		pkg := pkgOfFunc(cycle[0])
		add(pkg, Diagnostic{
			Pos:  first.pos,
			Pass: pass,
			Message: fmt.Sprintf("synchronous RPC wait-for cycle %s: %s",
				strings.Join(path, " -> "), strings.Join(details, "; ")),
			Related: related,
		})
	}

	// Self-loops first: an SCC of size one.
	var selfs []string
	for k := range best {
		if k[0] == k[1] {
			selfs = append(selfs, k[0])
		}
	}
	sort.Strings(selfs)
	for _, n := range selfs {
		report([]string{n})
	}
	for _, scc := range stronglyConnected(nodes, adj) {
		if len(scc) < 2 {
			continue
		}
		sort.Strings(scc)
		if cycle := shortestCycle(scc[0], scc, adj); len(cycle) > 0 {
			report(cycle)
		}
	}
}

// pkgOfFunc extracts the package path from a types.Func full name —
// "(*repro/internal/rados.OSD).handle" for a method,
// "repro/internal/rados.OSDAddr" for a package function.
func pkgOfFunc(full string) string {
	s := strings.TrimPrefix(full, "(")
	s = strings.TrimPrefix(s, "*")
	if i := strings.LastIndex(s, "/"); i >= 0 {
		if j := strings.IndexByte(s[i:], '.'); j >= 0 {
			return s[:i+j]
		}
	}
	if j := strings.IndexByte(s, '.'); j >= 0 {
		return s[:j]
	}
	return s
}
