package dataflow

import (
	"fmt"
	"sort"

	"reclose/internal/ast"
	"reclose/internal/cfg"
	"reclose/internal/sem"
)

// Result is the whole-program analysis result.
type Result struct {
	Unit  *cfg.Unit
	Procs map[string]*ProcResult
	// EnvParams is the effective environment interface after
	// interprocedural propagation: it contains the declared env
	// parameters plus every parameter that may receive an
	// environment-dependent argument at some call site.
	EnvParams map[string]map[int]bool
	// EnvTainted marks procedures containing at least one node with a
	// non-empty V_I (they may compute with environment values).
	EnvTainted map[string]bool
	// TaintedObjs marks channels and shared variables that may carry
	// environment-dependent data between processes.
	TaintedObjs map[string]bool
	// Iterations is the number of per-procedure analyses the worklist
	// performed before reaching the fixpoint.
	Iterations int
	// SolverVisits is the number of node visits the reaching-definitions
	// solver made, summed over the procedures.
	SolverVisits int
}

// Proc returns the per-procedure result.
func (r *Result) Proc(name string) *ProcResult { return r.Procs[name] }

// Err returns an error if the program uses a construct the
// transformation does not support (stores through environment-dependent
// pointers), and nil otherwise.
func (r *Result) Err() error {
	var names []string
	for name := range r.Procs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pr := r.Procs[name]
		if len(pr.DerefEnvPointer) > 0 {
			n := pr.Graph.Nodes[pr.DerefEnvPointer[0]]
			return fmt.Errorf("proc %s: node n%d at %s stores through an environment-dependent pointer; environment inputs are scalar values (see DESIGN.md)",
				name, n.ID, n.Pos)
		}
	}
	return nil
}

// Analyze runs the whole-program analysis of Step 2 of the algorithm on
// a compiled unit: per-procedure alias analysis, define-use graphs, and
// V_I sets, iterated with interprocedural propagation of environment
// inputs until a fixpoint is reached.
//
// Three facts flow across procedure boundaries, all monotonically:
//
//  1. If a call site passes an argument in V_I (an environment-dependent
//     value) for parameter i of procedure f, then parameter i of f is
//     treated as provided by the environment (per the discussion of
//     Step 5 in §4 of the paper).
//  2. If an environment-dependent value is sent over a channel or
//     written to a shared variable, the object is tainted, and receives
//     from it define environment-dependent values (the o = i matching
//     of §3 applied to data-carrying communication objects).
//  3. If a callee may compute with environment values (EnvTainted), the
//     variables reachable through pointers from the call's arguments may
//     be written with environment-dependent values at the call site.
//
// The fixpoint is computed with a worklist: a procedure is re-analyzed
// only when one of the facts it depends on grows, and then only its
// taint phase re-runs; reaching definitions, which no fact changes, are
// solved once. Termination: the sets only grow and are bounded by the
// program size.
func Analyze(u *cfg.Unit) *Result {
	ctx := &procContext{
		unit:        u,
		envParams:   make(map[string]map[int]bool),
		envTainted:  make(map[string]bool),
		taintedObjs: make(map[string]bool),
	}
	for proc, set := range u.EnvParams {
		cp := make(map[int]bool, len(set))
		for i := range set {
			cp[i] = true
		}
		ctx.envParams[proc] = cp
	}

	// Static dependency maps: who calls whom, and who reads which
	// object (recv/vread out-arguments).
	callers := make(map[string][]string) // callee -> callers
	readers := make(map[string][]string) // object -> procs receiving from it
	for _, name := range u.Order {
		for _, n := range u.Procs[name].Nodes {
			if n.Kind != cfg.NCall {
				continue
			}
			cs := n.CallStmt()
			if b, ok := sem.Builtins[cs.Name.Name]; ok {
				if b.OutArg >= 0 && b.HasObj && len(cs.Args) > 0 {
					if obj, ok := cs.Args[0].(*ast.Ident); ok {
						readers[obj.Name] = append(readers[obj.Name], name)
					}
				}
				continue
			}
			callers[cs.Name.Name] = append(callers[cs.Name.Name], name)
		}
	}

	res := &Result{Unit: u, Procs: make(map[string]*ProcResult, len(u.Order))}
	reach := make(map[string]*procReach, len(u.Order))
	for _, name := range u.Order {
		reach[name] = newProcReach(u.Procs[name], u.Arrays[name])
		res.SolverVisits += reach[name].visits
	}

	inQ := make(map[string]bool, len(u.Order))
	var queue []string
	push := func(name string) {
		if _, exists := u.Procs[name]; exists && !inQ[name] {
			inQ[name] = true
			queue = append(queue, name)
		}
	}
	for _, name := range u.Order {
		push(name)
	}

	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		inQ[name] = false
		res.Iterations++

		pr := reach[name].taint(ctx)
		res.Procs[name] = pr

		// Fact 1: env-dependent arguments taint callee parameters.
		for _, n := range pr.Graph.Nodes {
			if n.Kind != cfg.NCall {
				continue
			}
			cs := n.CallStmt()
			if _, isBuiltin := sem.Builtins[cs.Name.Name]; isBuiltin {
				// Fact 2: env-dependent data entering an object taints it.
				if cs.Name.Name == "send" || cs.Name.Name == "vwrite" {
					obj, ok := cs.Args[0].(*ast.Ident)
					if !ok || ctx.taintedObjs[obj.Name] {
						continue
					}
					if id, ok := cs.Args[1].(*ast.Ident); ok && pr.VI[n.ID].Has(id.Name) {
						ctx.taintedObjs[obj.Name] = true
						for _, r := range readers[obj.Name] {
							push(r)
						}
					}
				}

				continue
			}
			callee := cs.Name.Name
			for i, a := range cs.Args {
				id, ok := a.(*ast.Ident)
				if !ok {
					continue
				}
				if pr.VI[n.ID].Has(id.Name) && !ctx.envParams[callee][i] {
					if ctx.envParams[callee] == nil {
						ctx.envParams[callee] = make(map[int]bool)
					}
					ctx.envParams[callee][i] = true
					push(callee)
				}
			}
		}

		// Fact 3: a procedure that computes with env values may write env
		// values through pointer arguments; its callers must account for
		// that.
		if !ctx.envTainted[name] && (pr.HasTaint() || len(ctx.envParams[name]) > 0) {
			ctx.envTainted[name] = true
			for _, c := range callers[name] {
				push(c)
			}
		}
	}

	res.EnvParams = ctx.envParams
	res.EnvTainted = ctx.envTainted
	res.TaintedObjs = ctx.taintedObjs
	return res
}
