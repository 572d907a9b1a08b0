package dataflow

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"reclose/internal/ast"
	"reclose/internal/cfg"
	"reclose/internal/sem"
	"reclose/internal/token"
)

// Def is one definition site of a variable.
type Def struct {
	ID     int
	Node   int    // defining node ID, or -1 for the entry pseudo-definition
	Var    string // variable defined
	Strong bool   // strong defs kill other defs of the same variable
	// Env: the value may come from the environment E_S. Such a def labels
	// no define-use arc, except at a call site, where the callee may
	// store a system value too and the def stands for both.
	Env  bool
	call bool   // weak def of a variable a callee may write through pointers
	src  string // object received from, or callee for call defs
}

// arc reports whether d labels define-use arcs to the uses it reaches.
func (d *Def) arc() bool { return d.Node >= 0 && (d.call || !d.Env) }

// DUArc is one arc of the define-use graph Ğ_j: the statement at node
// From defines Var, and the statement at node To may use that value
// (there is a control-flow path from From to To along which Var is not
// redefined).
type DUArc struct {
	From, To int
	Var      string
}

// ProcResult is the analysis result for one procedure.
type ProcResult struct {
	Proc    string
	Graph   *cfg.Graph
	Aliases *PointsTo

	// Uses[n] is V(n): the variables whose value may be read by node n.
	Uses []VarSet
	// Defs[n] lists the definitions generated at node n.
	Defs [][]*Def
	// DU is the define-use graph Ğ_j.
	DU []DUArc
	// EnvUse[n] reports n ∈ N_Es: node n uses a value defined by the
	// environment.
	EnvUse []bool
	// NI[n] reports n ∈ N_I: n is reachable from N_Es by a (possibly
	// empty) sequence of define-use arcs.
	NI []bool
	// VI[n] is V_I(n): the variables used in n that are defined by E_S
	// or labeling a define-use arc into n from a node in N_I. Nodes not
	// in N_I have an empty set.
	VI []VarSet
	// DerefEnvPointer records nodes that store through a pointer whose
	// value is environment-dependent; the transformation rejects these
	// (see DESIGN.md: environment inputs are scalar values).
	DerefEnvPointer []int
}

// HasTaint reports whether any node of the procedure has a non-empty
// V_I set.
func (r *ProcResult) HasTaint() bool {
	for _, v := range r.VI {
		if len(v) > 0 {
			return true
		}
	}
	return false
}

// String renders the per-node analysis for debugging.
func (r *ProcResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "analysis of %s:\n", r.Proc)
	for _, n := range r.Graph.Nodes {
		mark := " "
		if r.EnvUse[n.ID] {
			mark = "E"
		} else if r.NI[n.ID] {
			mark = "I"
		}
		fmt.Fprintf(&b, "  n%-3d [%s] uses=%v VI=%v\n", n.ID, mark, r.Uses[n.ID].Sorted(), r.VI[n.ID].Sorted())
	}
	return b.String()
}

// procContext carries the interprocedural facts a single-procedure
// analysis depends on.
type procContext struct {
	unit *cfg.Unit
	// envParams is the current (possibly enlarged) set of env parameter
	// indices per procedure.
	envParams map[string]map[int]bool
	// envTainted marks procedures that may write environment-dependent
	// values through pointer arguments (or anywhere).
	envTainted map[string]bool
	// taintedObjs marks channels and shared variables through which some
	// process may send or write an environment-dependent value. The
	// paper matches procedure outputs to procedure inputs (o = i, §3);
	// data-carrying communication objects are those connections, so a
	// receive from a tainted object defines its target with an
	// environment-dependent value.
	taintedObjs map[string]bool
}

// procReach is the part of one procedure's Step 2 analysis that no
// interprocedural fact changes (the reach phase): aliases, uses, def
// sites, and for every use the defs that reach it. Analyze computes it
// once per procedure; each revisit re-runs only taint.
type procReach struct {
	g    *cfg.Graph
	pt   *PointsTo
	uses []VarSet
	defs [][]*Def // defs generated at each node
	all  []*Def   // every def by ID, the parameters' entry defs first
	// reach[reachAt[n]:reachAt[n+1]] are the IDs of the defs reaching
	// the uses of node n, in arc order: by variable, then ID.
	reach   []int32
	reachAt []int
	visits  int // solver node visits
}

// newProcReach runs the reach phase on g.
func newProcReach(g *cfg.Graph, arrays map[string]bool) *procReach {
	pt := AnalyzeAliases(g)
	rp := &procReach{g: g, pt: pt, uses: make([]VarSet, len(g.Nodes)), defs: make([][]*Def, len(g.Nodes))}
	newDef := func(d Def) {
		d.ID = len(rp.all)
		rp.all = append(rp.all, &d)
		rp.defs[d.Node] = append(rp.defs[d.Node], &d)
	}

	// Entry pseudo-definitions: every parameter is defined before the
	// start node executes — by the environment for env parameters, by
	// the calling procedure otherwise.
	for i, p := range g.Params {
		rp.all = append(rp.all, &Def{ID: i, Node: -1, Var: p, Strong: true})
	}

	for _, n := range g.Nodes {
		uses := NewVarSet()
		switch n.Kind {
		case cfg.NAssign:
			lhs, rhs := assignParts(n.Stmt)
			if rhs != nil {
				addExprUses(rhs, pt, uses)
			}
			if vs, ok := n.Stmt.(*ast.VarStmt); ok && vs.Size != nil {
				addExprUses(vs.Size, pt, uses)
			}
			switch lhs := lhs.(type) {
			case *ast.Ident:
				newDef(Def{Node: n.ID, Var: lhs.Name, Strong: !arrays[lhs.Name]})
			case *ast.IndexExpr:
				addExprUses(lhs.Index, pt, uses)
				newDef(Def{Node: n.ID, Var: lhs.X.Name})
			case *ast.UnaryExpr: // *p = rhs
				if id, ok := lhs.X.(*ast.Ident); ok {
					uses.Add(id.Name)
					targets := pt.PointsToSet(id.Name)
					strong := len(targets) == 1
					for _, t := range targets.Sorted() {
						newDef(Def{Node: n.ID, Var: t, Strong: strong && !arrays[t]})
					}
				}
			}
		case cfg.NCond:
			addExprUses(n.Cond, pt, uses)
		case cfg.NCall:
			cs := n.CallStmt()
			name := cs.Name.Name
			if b, ok := sem.Builtins[name]; ok {
				for i := 0; i < len(cs.Args); i++ {
					if b.HasObj && i == 0 {
						continue
					}
					if i == b.OutArg {
						out := cs.Args[i].(*ast.Ident)
						d := Def{Node: n.ID, Var: out.Name, Strong: !arrays[out.Name]}
						if obj, ok := cs.Args[0].(*ast.Ident); ok && b.HasObj {
							d.src = obj.Name
						}
						newDef(d)
						continue
					}
					addExprUses(cs.Args[i], pt, uses)
				}
			} else {
				var argNames []string
				for _, a := range cs.Args {
					if id, ok := a.(*ast.Ident); ok {
						uses.Add(id.Name)
						argNames = append(argNames, id.Name)
					} else {
						addExprUses(a, pt, uses)
					}
				}
				// The callee may read and write every variable reachable
				// through pointers from the arguments.
				reach := pt.Closure(argNames)
				uses.AddAll(reach)
				for _, v := range reach.Sorted() {
					newDef(Def{Node: n.ID, Var: v, call: true, src: name})
				}
			}
		}
		rp.uses[n.ID] = uses
	}
	rp.solve()
	return rp
}

// defMask is the set of defs of one variable, over the words its def
// IDs span: bit i of bits[w] is def (lo+w)*64+i.
type defMask struct {
	lo   int
	bits []uint64
}

// solve computes reaching definitions and fills rp.reach. IN[n] is a
// def bitset: the union over n's predecessors p of OUT[p] = (IN[p] &^
// mask[v] for each v strongly defined at p) | gen[p], plus the entry
// defs at the start node. A round-robin pass in reverse postorder
// carries facts along every forward arc at once, so structured code
// reaches the least fixpoint in one pass per loop level plus one that
// changes nothing.
func (rp *procReach) solve() {
	g := rp.g
	words := (len(rp.all) + 63) / 64
	set := func(b []uint64, id int) { b[id/64] |= 1 << (id % 64) }
	masks := make(map[string]*defMask)
	for _, d := range rp.all { // IDs ascend, so bits only grows
		if masks[d.Var] == nil {
			masks[d.Var] = &defMask{lo: d.ID / 64}
		}
		m := masks[d.Var]
		m.bits = append(m.bits, make([]uint64, d.ID/64-m.lo+1-len(m.bits))...)
		set(m.bits, d.ID-m.lo*64)
	}

	in := make([]uint64, len(g.Nodes)*words)
	inOf := func(id int) []uint64 { return in[id*words : (id+1)*words] }
	acc, out := make([]uint64, words), make([]uint64, words)
	order := reversePostorder(g)
	for changed := true; changed; {
		changed = false
		for _, n := range order {
			rp.visits++
			clear(acc)
			if n == g.Entry {
				for _, d := range rp.all[:len(g.Params)] {
					set(acc, d.ID)
				}
			}
			for _, a := range n.In {
				copy(out, inOf(a.From.ID))
				for _, d := range rp.defs[a.From.ID] {
					if d.Strong {
						m := masks[d.Var]
						for w, b := range m.bits {
							out[m.lo+w] &^= b
						}
					}
				}
				for _, d := range rp.defs[a.From.ID] {
					set(out, d.ID)
				}
				for w, x := range out {
					acc[w] |= x
				}
			}
			if dst := inOf(n.ID); !slices.Equal(acc, dst) {
				copy(dst, acc)
				changed = true
			}
		}
	}

	// Ğ without the env classification: the defs of v reaching n are
	// IN[n] & mask[v].
	rp.reachAt = make([]int, 1, len(g.Nodes)+1)
	for _, n := range g.Nodes {
		for _, v := range rp.uses[n.ID].Sorted() {
			if m := masks[v]; m != nil {
				for w, b := range m.bits {
					for x := inOf(n.ID)[m.lo+w] & b; x != 0; x &= x - 1 {
						rp.reach = append(rp.reach, int32((m.lo+w)*64+bits.TrailingZeros64(x)))
					}
				}
			}
		}
		rp.reachAt = append(rp.reachAt, len(rp.reach))
	}
}

// reversePostorder returns g's nodes in reverse postorder of a
// depth-first search from the entry, followed by the nodes the entry
// does not reach, in ID order.
func reversePostorder(g *cfg.Graph) []*cfg.Node {
	seen := make([]bool, len(g.Nodes))
	order := make([]*cfg.Node, 0, len(g.Nodes))
	var visit func(n *cfg.Node)
	visit = func(n *cfg.Node) {
		seen[n.ID] = true
		for _, a := range n.Out {
			if !seen[a.To.ID] {
				visit(a.To)
			}
		}
		order = append(order, n)
	}
	visit(g.Entry)
	slices.Reverse(order)
	for _, n := range g.Nodes {
		if !seen[n.ID] {
			order = append(order, n)
		}
	}
	return order
}

// taint runs the taint phase under the interprocedural facts of ctx:
// it classifies the defs, then derives N_Es, Ğ, N_I and V_I from the
// reach phase's result in time linear in its size.
func (rp *procReach) taint(ctx *procContext) *ProcResult {
	g := rp.g
	for _, d := range rp.all {
		switch {
		case d.Node < 0: // entry defs come first: the ID is the parameter index
			d.Env = ctx.envParams[g.ProcName][d.ID]
		case d.call:
			d.Env = ctx.envTainted[d.src]
		case d.src != "":
			// recv on an env-facing channel yields a value provided by
			// the environment; so does recv/vread on an object some
			// process may fill with env-dependent data.
			d.Env = ctx.unit.EnvChans[d.src] || ctx.taintedObjs[d.src]
		}
	}
	r := &ProcResult{
		Proc:    g.ProcName,
		Graph:   g,
		Aliases: rp.pt,
		Uses:    rp.uses,
		Defs:    rp.defs,
		EnvUse:  make([]bool, len(g.Nodes)),
		NI:      make([]bool, len(g.Nodes)),
		VI:      make([]VarSet, len(g.Nodes)),
	}

	addVI := func(id int, v string) {
		if r.VI[id] == nil {
			r.VI[id] = NewVarSet()
		}
		r.VI[id].Add(v)
	}
	// Ğ and N_Es. V_I starts as the env-defined uses: those nodes are in
	// N_Es, hence in N_I.
	arcs := 0
	for _, id := range rp.reach {
		if rp.all[id].arc() {
			arcs++
		}
	}
	if arcs > 0 {
		r.DU = make([]DUArc, 0, arcs)
	}
	for n := range g.Nodes {
		for _, id := range rp.reach[rp.reachAt[n]:rp.reachAt[n+1]] {
			d := rp.all[id]
			if d.Env {
				r.EnvUse[n] = true
				addVI(n, d.Var)
			}
			if d.arc() {
				r.DU = append(r.DU, DUArc{From: d.Node, To: n, Var: d.Var})
			}
		}
	}

	// N_I: nodes reachable from N_Es by define-use arcs, over the arcs
	// bucketed by source: succ[start[n]:start[n+1]].
	start, succ := make([]int, len(g.Nodes)+1), make([]int, len(r.DU))
	for _, a := range r.DU {
		start[a.From]++
	}
	for i := range g.Nodes {
		start[i+1] += start[i]
	}
	for _, a := range r.DU {
		start[a.From]--
		succ[start[a.From]] = a.To
	}
	var mark func(id int)
	mark = func(id int) {
		if !r.NI[id] {
			r.NI[id] = true
			for _, to := range succ[start[id]:start[id+1]] {
				mark(to)
			}
		}
	}
	for id, env := range r.EnvUse {
		if env {
			mark(id)
		}
	}

	// V_I(n) also holds the variables labeling arcs into n from N_I.
	for _, a := range r.DU {
		if r.NI[a.From] {
			addVI(a.To, a.Var)
		}
	}

	// Detect stores through environment-dependent pointers (unsupported:
	// env inputs are scalar values; see DESIGN.md).
	for _, n := range g.Nodes {
		if n.Kind != cfg.NAssign {
			continue
		}
		lhs, _ := assignParts(n.Stmt)
		if u, ok := lhs.(*ast.UnaryExpr); ok && u.Op == token.MUL {
			if id, ok := u.X.(*ast.Ident); ok && r.VI[n.ID].Has(id.Name) {
				r.DerefEnvPointer = append(r.DerefEnvPointer, n.ID)
			}
		}
	}

	return r
}

// addExprUses adds to dst the variables whose values are read by e:
// identifiers (except under &), arrays, pointers, and for *p the
// may-point-to set of p.
func addExprUses(e ast.Expr, pt *PointsTo, dst VarSet) {
	switch e := e.(type) {
	case *ast.Ident:
		dst.Add(e.Name)
	case *ast.IntLit, *ast.BoolLit, *ast.UndefLit:
	case *ast.TossExpr:
		addExprUses(e.Bound, pt, dst)
	case *ast.IndexExpr:
		dst.Add(e.X.Name)
		addExprUses(e.Index, pt, dst)
	case *ast.UnaryExpr:
		switch e.Op {
		case token.AND:
			// &x reads no value.
		case token.MUL:
			if id, ok := e.X.(*ast.Ident); ok {
				dst.Add(id.Name)
				dst.AddAll(pt.PointsToSet(id.Name))
			} else {
				addExprUses(e.X, pt, dst)
			}
		default:
			addExprUses(e.X, pt, dst)
		}
	case *ast.BinaryExpr:
		addExprUses(e.X, pt, dst)
		addExprUses(e.Y, pt, dst)
	}
}
