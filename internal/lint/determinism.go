package lint

import (
	"go/ast"
	"go/types"
)

// Determinism guards the system's headline invariant: Report.Best is a pure
// function of (graph, Request minus Workers) — bit-identical across worker
// counts, region modes, executor paths and, eventually, replicas. The
// invariance test suites catch violations after the fact; this analyzer
// rejects the four ways they get written in the first place, at the AST
// level, inside the result-path packages (internal/solver, internal/sampling,
// internal/graph, internal/gen, internal/objective):
//
//   - wall-clock reads (time.Now, time.Since, time.Sleep, time.Until):
//     timing must never influence which group a solve returns;
//   - the global math/rand generator: all randomness must derive from
//     rng.Split sub-streams seeded by the request, never from shared
//     process-global state;
//   - ranging over a map: iteration order is randomized per run, so any
//     result that depends on it differs between processes;
//   - select over two or more channels: when several are ready the runtime
//     picks uniformly at random, so control flow diverges between runs.
//
// Scope is the call graph reachable from the result-path entry points:
// functions named Solve or execTask (the solver paths) and the scoring
// paths Delta, Bound and Arrays (objective.Binding's Delta and Bound, and
// each objective's Arrays — every value they return lands in
// Report.Best, so a clock read or map range there is exactly as fatal as
// one in a Solve). Packages declaring none of these — the substrate
// packages — are checked whole; registry plumbing like objective.Names,
// unreachable from the entry points, is deliberately out of scope.
// Legitimate sites (advisory timing of Report.Elapsed, map ranges whose
// keys are sorted before use) carry an explicit
// //lint:allow determinism(reason) so every exemption is visible and
// reviewed in the diff that introduces it.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "forbid wall-clock reads, global math/rand, map ranges and multi-channel " +
		"selects in solver result paths",
	Run: runDeterminism,
}

// determinismPkgs are the result-path packages the analyzer covers.
var determinismPkgs = []string{
	"internal/solver",
	"internal/sampling",
	"internal/graph",
	"internal/gen",
	"internal/objective",
}

// timeFuncs are the package time functions that read or depend on the wall
// clock. Pure constructors and converters (time.Duration arithmetic,
// time.Unix) are deliberately absent.
var timeFuncs = map[string]bool{
	"Now":   true,
	"Since": true,
	"Sleep": true,
	"Until": true,
}

// seededRandFuncs are the math/rand[/v2] package-level constructors that
// return an explicitly seeded generator — fine to call; everything else at
// package level draws from the shared global state.
var seededRandFuncs = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewPCG":     true,
	"NewChaCha8": true,
	"NewZipf":    true,
}

func runDeterminism(pass *Pass) error {
	if !pathMatches(pass.Pkg.Path(), determinismPkgs...) {
		return nil
	}
	graph := buildCallGraph(pass)

	// Roots: the result-path entry points — Solve/execTask in the solver
	// layer, Delta/Bound/Arrays in the scoring layer. A package that
	// declares none of them (sampling, graph, gen — substrates wholly on
	// the result path) is checked in full.
	var roots []*types.Func
	for fn := range graph.decls {
		switch fn.Name() {
		case "Solve", "execTask", "Delta", "Bound", "Arrays":
			roots = append(roots, fn)
		}
	}
	var reach map[*types.Func]bool
	if len(roots) > 0 {
		reach = graph.reachable(roots)
	}

	for _, fd := range graph.sortedDecls() {
		if reach != nil {
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !reach[fn] {
				continue
			}
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				pass.checkDeterminismCall(n)
			case *ast.RangeStmt:
				if tv, ok := pass.TypesInfo.Types[n.X]; ok {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						pass.Reportf(n.Pos(),
							"range over map in a result path: iteration order is randomized per run; "+
								"iterate a sorted key slice instead (or //lint:allow determinism(reason) if order provably cannot reach results)")
					}
				}
			case *ast.SelectStmt:
				comms := 0
				for _, clause := range n.Body.List {
					if cc, ok := clause.(*ast.CommClause); ok && cc.Comm != nil {
						comms++
					}
				}
				if comms >= 2 {
					pass.Reportf(n.Pos(),
						"select over %d channels in a result path: the runtime picks a ready case at random; "+
							"restructure so result-bearing control flow has one channel (or //lint:allow determinism(reason))", comms)
				}
			}
			return true
		})
	}
	return nil
}

// checkDeterminismCall flags wall-clock and global-RNG calls.
func (p *Pass) checkDeterminismCall(call *ast.CallExpr) {
	fn := calleeFunc(p.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return // methods (e.g. time.Time.Sub on an existing value) are fine
	}
	switch fn.Pkg().Path() {
	case "time":
		if timeFuncs[fn.Name()] {
			p.Reportf(call.Pos(),
				"call to time.%s in a result path: wall-clock reads must never influence Report.Best; "+
					"move timing outside the result path or //lint:allow determinism(reason) for advisory-only use", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !seededRandFuncs[fn.Name()] {
			p.Reportf(call.Pos(),
				"call to global %s.%s in a result path: all randomness must derive from the request-seeded "+
					"rng.Split streams, never process-global state", fn.Pkg().Name(), fn.Name())
		}
	}
}
