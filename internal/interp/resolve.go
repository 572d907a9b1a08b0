package interp

import (
	"fmt"
	"sort"
	"time"

	"reclose/internal/ast"
	"reclose/internal/cfg"
	"reclose/internal/sem"
)

// This file implements the one-time resolution pass of the interpreter:
// per unit, every procedure graph gets a slot table (dense variable
// numbering, cfg.BuildSlotTable), and the whole unit is then lowered
// straight from the CFG to one bytecode module (bytecode.go). Visible
// operations additionally keep a descriptor with the target object
// resolved to a dense index, which Enabled and the visible-operation
// step read at run time. Execution then never hashes a variable name,
// walks an AST, or consults the builtin table.
//
// The bytecode reproduces the reference interpreter's runtime behavior
// exactly, including every trap message: the differential oracle test
// (differential_test.go) holds the two implementations to
// byte-identical events, outcomes, and fingerprints.

// builtinOp enumerates the visible operations, replacing per-step
// string dispatch.
type builtinOp int

const (
	opAssert builtinOp = iota
	opSend
	opRecv
	opWait
	opSignal
	opVwrite
	opVread
)

// visOp describes a visible operation (builtin call node).
type visOp struct {
	op      builtinOp
	opName  string
	objIdx  int    // dense object index; -1 for VS_assert or an unknown object
	objName string // "" for VS_assert
	// kindOK records that the target object's declared kind matches the
	// builtin's signature; a mismatched operation is permanently
	// disabled, like the reference interpreter's Enabled dispatch.
	kindOK bool
	// frag is the pc of the operand fragment: the value operand of
	// VS_assert/send/vwrite or the destination store of recv/vread;
	// -1 for wait/signal.
	frag int32
	// succ is the node control moves to after the operation.
	succ *cfg.Node
	// violation is the precomputed VS_assert violation message (the
	// reference formats it with ast.FormatExpr on every failure).
	violation string
	// progress mirrors the source `progress` label for liveness
	// checking (ast.CallStmt.Progress).
	progress bool
}

// procCode is the resolved form of one procedure.
type procCode struct {
	name   string
	nameH  uint64 // fnvString(name), folded into the control hash
	g      *cfg.Graph
	slots  *cfg.SlotTable
	vis    []*visOp // node ID -> visible operation; nil for other nodes
	entry  int32    // pc of the entry node's block
	blocks []int32  // node ID -> block pc
}

func (pc *procCode) nSlots() int { return len(pc.slots.Names) }

// slot returns the slot of name; the slot table collected every
// identifier of the graph, so a miss is a resolver bug.
func (pc *procCode) slot(name string) int {
	s := pc.slots.Slot(name)
	if s < 0 {
		panic(fmt.Sprintf("interp: no slot for %q in %s", name, pc.name))
	}
	return s
}

// Resolution is the compiled, immutable form of a closed unit. It is
// read-only after Resolve returns and may be shared freely: the
// parallel explorer resolves a unit once and instantiates one System
// per worker from the same Resolution.
type Resolution struct {
	unit     *cfg.Unit
	procs    map[string]*procCode
	objNames []string // sorted object names; the dense object order
	objIdx   map[string]int
	objSpecs []cfg.ObjectSpec // aligned with objNames
	// allProgress is set when the unit declares no `progress` labels:
	// every visible operation then counts as progress for liveness
	// checking, so unlabeled programs only report cycles that execute
	// no visible operation at all.
	allProgress bool

	mod          *bcModule
	compileNanos int64 // wall time of the bytecode lowering
}

// Unit returns the unit the resolution was compiled from.
func (r *Resolution) Unit() *cfg.Unit { return r.unit }

// HasProgressLabels reports whether any visible-operation node of the
// unit carries a `progress` label. Without labels, liveness checking
// treats every visible operation as progress (the default documented
// on ast.CallStmt.Progress), so existing programs need no edits.
func HasProgressLabels(u *cfg.Unit) bool {
	for _, g := range u.Procs {
		for _, n := range g.Nodes {
			if n.Kind != cfg.NCall {
				continue
			}
			if cs := n.CallStmt(); cs != nil && cs.Progress {
				return true
			}
		}
	}
	return false
}

// Resolve compiles a closed unit for execution. Open units are
// rejected, exactly as NewSystem rejects them. The resolution captures
// the unit's graphs as they are now: resolve only after all
// transformations (closing, dead-code elimination) are done.
func Resolve(u *cfg.Unit) (*Resolution, error) {
	if u.IsOpen() {
		return nil, fmt.Errorf("interp: unit is open (declares an environment interface); close it first")
	}
	if len(u.Processes) == 0 {
		return nil, fmt.Errorf("interp: unit declares no processes")
	}
	r := &Resolution{
		unit:        u,
		procs:       make(map[string]*procCode, len(u.Procs)),
		objIdx:      make(map[string]int, len(u.Objects)),
		allProgress: !HasProgressLabels(u),
	}
	r.objSpecs = append([]cfg.ObjectSpec(nil), u.Objects...)
	sort.Slice(r.objSpecs, func(i, j int) bool { return r.objSpecs[i].Name < r.objSpecs[j].Name })
	for i, sp := range r.objSpecs {
		r.objNames = append(r.objNames, sp.Name)
		r.objIdx[sp.Name] = i
	}
	// Slot tables first, so the lowering can link callees.
	for name, g := range u.Procs {
		r.procs[name] = &procCode{name: name, nameH: fnvString(name), g: g, slots: cfg.BuildSlotTable(g)}
	}
	start := time.Now()
	r.mod = compileModule(r)
	r.compileNanos = time.Since(start).Nanoseconds()
	return r, nil
}

// newVisOp builds the descriptor of a builtin call node. Semantic
// analysis guarantees arity and an identifier object argument; the
// descriptor assumes both. The operand fragment pc is filled in by the
// bytecode compiler.
func (r *Resolution) newVisOp(pc *procCode, n *cfg.Node, cs *ast.CallStmt, b sem.Builtin) *visOp {
	name := cs.Name.Name
	vis := &visOp{opName: name, objIdx: -1, frag: -1, succ: n.Succ(), progress: cs.Progress || r.allProgress}
	switch name {
	case "VS_assert":
		vis.op = opAssert
		vis.violation = fmt.Sprintf("VS_assert(%s) at node n%d of %s",
			ast.FormatExpr(cs.Args[0]), n.ID, pc.name)
		return vis
	case "send":
		vis.op = opSend
	case "recv":
		vis.op = opRecv
	case "wait":
		vis.op = opWait
	case "signal":
		vis.op = opSignal
	case "vwrite":
		vis.op = opVwrite
	case "vread":
		vis.op = opVread
	}
	vis.objName = cs.Args[0].(*ast.Ident).Name
	if i, ok := r.objIdx[vis.objName]; ok {
		vis.objIdx = i
		vis.kindOK = r.objSpecs[i].Kind == b.ObjKind
	}
	return vis
}
