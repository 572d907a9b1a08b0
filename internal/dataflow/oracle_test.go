package dataflow_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"reclose/internal/ast"
	"reclose/internal/cfg"
	"reclose/internal/core"
	"reclose/internal/dataflow"
	"reclose/internal/fiveess"
	"reclose/internal/progs"
	"reclose/internal/randprog"
	"reclose/internal/sem"
	"reclose/internal/synth"
)

// oracleDef is one definition site as the oracle sees it. The oracle
// takes the def sites (node, variable, strength) from the analysis but
// decides on its own whether each carries an environment value and
// whether it labels define-use arcs.
type oracleDef struct {
	node   int // -1 for a parameter's entry definition
	v      string
	strong bool
	env    bool
	arc    bool
}

// oracleProc recomputes Ğ, N_Es, N_I and V_I of one procedure from the
// path definition of reaching definitions: a def d of v reaches the use
// of v at n iff some control path from d's node to n redefines v
// strongly at no node strictly between them. It walks backwards from
// every (use node, var) pair, so it costs O(|uses| · |G|) and shares no
// code with the solver.
func oracleProc(res *dataflow.Result, pr *dataflow.ProcResult) (du []dataflow.DUArc, envUse, ni []bool, vi []dataflow.VarSet) {
	g := pr.Graph
	u := res.Unit

	// Def sites per node and variable, deduplicated by (node, var,
	// strength); classification comes from the final interprocedural
	// facts of the result.
	defsAt := make([]map[string][]oracleDef, len(g.Nodes))
	for id, ds := range pr.Defs {
		seen := map[string]bool{}
		for _, d := range ds {
			key := fmt.Sprintf("%s/%v", d.Var, d.Strong)
			if seen[key] {
				continue
			}
			seen[key] = true
			od := oracleDef{node: id, v: d.Var, strong: d.Strong, arc: true}
			if n := g.Nodes[id]; n.Kind == cfg.NCall {
				cs := n.CallStmt()
				if _, builtin := sem.Builtins[cs.Name.Name]; builtin {
					obj, _ := cs.Args[0].(*ast.Ident)
					od.env = obj != nil && (u.EnvChans[obj.Name] || res.TaintedObjs[obj.Name])
					od.arc = !od.env
				} else {
					od.env = res.EnvTainted[cs.Name.Name]
				}
			}
			if defsAt[id] == nil {
				defsAt[id] = map[string][]oracleDef{}
			}
			defsAt[id][d.Var] = append(defsAt[id][d.Var], od)
		}
	}
	var entryDefs []oracleDef
	for i, p := range g.Params {
		entryDefs = append(entryDefs, oracleDef{node: -1, v: p, strong: true, env: res.EnvParams[g.ProcName][i]})
	}

	// reaching returns the defs of v live on entry to n.
	reaching := func(n *cfg.Node, v string) []oracleDef {
		var out []oracleDef
		visited := make([]bool, len(g.Nodes))
		var work []*cfg.Node
		enterIn := func(m *cfg.Node) {
			if m == g.Entry {
				for _, d := range entryDefs {
					if d.v == v {
						out = append(out, d)
					}
				}
			}
			for _, a := range m.In {
				if !visited[a.From.ID] {
					visited[a.From.ID] = true
					work = append(work, a.From)
				}
			}
		}
		enterIn(n)
		for len(work) > 0 {
			m := work[len(work)-1]
			work = work[:len(work)-1]
			killed := false
			for _, d := range defsAt[m.ID][v] {
				out = append(out, d)
				killed = killed || d.strong
			}
			if !killed {
				enterIn(m)
			}
		}
		sort.SliceStable(out, func(i, j int) bool { return out[i].node < out[j].node })
		return out
	}

	envUse = make([]bool, len(g.Nodes))
	envReach := make([]dataflow.VarSet, len(g.Nodes))
	for _, n := range g.Nodes {
		envReach[n.ID] = dataflow.NewVarSet()
		for _, v := range pr.Uses[n.ID].Sorted() {
			for _, d := range reaching(n, v) {
				if d.env {
					envUse[n.ID] = true
					envReach[n.ID].Add(v)
				}
				if d.node >= 0 && d.arc {
					du = append(du, dataflow.DUArc{From: d.node, To: n.ID, Var: v})
				}
			}
		}
	}

	// N_I: the closure of N_Es under define-use arcs, to a fixpoint.
	ni = append([]bool(nil), envUse...)
	for changed := true; changed; {
		changed = false
		for _, a := range du {
			if ni[a.From] && !ni[a.To] {
				ni[a.To] = true
				changed = true
			}
		}
	}
	vi = make([]dataflow.VarSet, len(g.Nodes))
	for id := range g.Nodes {
		vi[id] = dataflow.NewVarSet()
		if !ni[id] {
			continue
		}
		vi[id].AddAll(envReach[id])
		for _, a := range du {
			if a.To == id && ni[a.From] {
				vi[id].Add(a.Var)
			}
		}
	}
	return du, envUse, ni, vi
}

// arcCounts is the multiset of a list of arcs.
func arcCounts(arcs []dataflow.DUArc) map[dataflow.DUArc]int {
	m := make(map[dataflow.DUArc]int, len(arcs))
	for _, a := range arcs {
		m[a]++
	}
	return m
}

// oracleCorpus is every program the oracle is checked on: the embedded
// example programs, the four synth shapes, the 5ESS presets and
// seeded random programs.
func oracleCorpus() map[string]string {
	c := map[string]string{
		"FigureP":          progs.FigureP,
		"FigureQ":          progs.FigureQ,
		"SimpleTaint":      progs.SimpleTaint,
		"PathIndependent":  progs.PathIndependent,
		"ProducerConsumer": progs.ProducerConsumer,
		"DeadlockProne":    progs.DeadlockProne,
		"AssertViolation":  progs.AssertViolation,
		"Router":           progs.Router,
		"Interproc":        progs.Interproc,
		"Forwarder":        progs.Forwarder,
		"Philosophers3":    progs.Philosophers(3),
		"Pipeline3x2":      progs.Pipeline(3, 2),
		"RouterScaled2x2":  progs.RouterScaled(2, 2),
		"LossyTransfer2x2": progs.LossyTransfer(2, 2),
		"fiveess/small":    fiveess.Source(fiveess.Scale("small")),
		"fiveess/medium":   fiveess.Source(fiveess.Scale("medium")),
	}
	for _, shape := range []synth.Shape{synth.StraightLine, synth.Branchy, synth.Loopy, synth.ManyProcs} {
		for _, n := range []int{20, 150, 600} {
			c[fmt.Sprintf("synth/%s/%d", shape, n)] = synth.Program(shape, n)
		}
	}
	for seed := 0; seed < 300; seed++ {
		c[fmt.Sprintf("randprog/%d", seed)] = randprog.Generate(rand.New(rand.NewSource(int64(seed))), randprog.Config{})
	}
	return c
}

// TestDUMatchesPathDefinition checks the analysis against the path
// definition of Ğ: for every procedure of every corpus program the
// define-use arcs (as a multiset, then in order), N_Es, N_I and V_I
// equal what a brute-force backward search computes.
func TestDUMatchesPathDefinition(t *testing.T) {
	corpus := oracleCorpus()
	names := make([]string, 0, len(corpus))
	for name := range corpus {
		names = append(names, name)
	}
	sort.Strings(names)
	totalArcs := 0
	for _, name := range names {
		u, err := core.CompileSource(corpus[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res := dataflow.Analyze(u)
		for _, proc := range u.Order {
			pr := res.Proc(proc)
			du, envUse, ni, vi := oracleProc(res, pr)
			totalArcs += len(du)
			where := name + " proc " + proc
			if !reflect.DeepEqual(arcCounts(pr.DU), arcCounts(du)) {
				t.Errorf("%s: define-use arc multiset differs\n got %v\nwant %v", where, pr.DU, du)
				continue
			}
			if !reflect.DeepEqual(pr.DU, du) {
				t.Errorf("%s: define-use arcs out of order\n got %v\nwant %v", where, pr.DU, du)
			}
			if !reflect.DeepEqual(pr.EnvUse, envUse) {
				t.Errorf("%s: EnvUse differs\n got %v\nwant %v", where, pr.EnvUse, envUse)
			}
			if !reflect.DeepEqual(pr.NI, ni) {
				t.Errorf("%s: NI differs\n got %v\nwant %v", where, pr.NI, ni)
			}
			for id := range vi {
				if !reflect.DeepEqual(pr.VI[id].Sorted(), vi[id].Sorted()) {
					t.Errorf("%s: VI(n%d) = %v, want %v", where, id, pr.VI[id].Sorted(), vi[id].Sorted())
				}
			}
		}
	}
	t.Logf("%d programs, %d define-use arcs checked", len(names), totalArcs)
}

// TestSolverVisitsLinear is a host-independent form of the linear-cost
// claim: the reaching-definitions solver visits each CFG node at most
// four times on every synth shape, however large the program.
func TestSolverVisitsLinear(t *testing.T) {
	for _, shape := range []synth.Shape{synth.StraightLine, synth.Branchy, synth.Loopy, synth.ManyProcs} {
		for _, n := range []int{500, 4000, 16000} {
			u, err := core.CompileSource(synth.Program(shape, n))
			if err != nil {
				t.Fatal(err)
			}
			nodes, _ := u.Size()
			res := dataflow.Analyze(u)
			t.Logf("%s/N=%d: %d nodes, %d visits (%.2f/node)", shape, n, nodes, res.SolverVisits, float64(res.SolverVisits)/float64(nodes))
			if res.SolverVisits > 4*nodes {
				t.Errorf("%s/N=%d: %d solver visits for %d nodes, want at most 4 per node", shape, n, res.SolverVisits, nodes)
			}
		}
	}
}
