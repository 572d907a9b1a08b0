package interp

import (
	"reclose/internal/comm"
)

// Fork returns an independent deep copy of the system's current state:
// communication objects, process stacks, stores, and control points.
// The receiver is only read; mutations of either system never affect
// the other, and both render byte-identical fingerprints for the state
// at the moment of the fork.
//
// Fork is what makes prefix snapshots cheap for the explorer's
// snapshot-spill mode: claiming a spilled subtree restores the forked
// System and continues from the spill point, instead of replaying the
// whole decision prefix from the initial state. The clone shares the
// immutable Resolution (compiled code); only mutable state is copied.
func (s *System) Fork() *System {
	s.met.Forks.Inc()
	fk := &forker{cellMap: make(map[*Cell]*Cell)}
	ns := &System{
		Unit:         s.Unit,
		res:          s.res,
		regs:         make([]Value, len(s.regs)),
		hashOn:       s.hashOn,
		acc:          s.acc,
		MaxInvisible: s.MaxInvisible,
		met:          s.met,
	}
	if s.objHash != nil {
		ns.objHash = append([]uint64(nil), s.objHash...)
	}

	// Pass 1: allocate every frame and register the identity of every
	// live cell, so pass 2 can remap pointer values — including
	// pointers into other frames of the same process — onto the
	// clone's cells.
	type framePair struct{ old, new *frame }
	var pairs []framePair
	ns.Procs = make([]*Proc, len(s.Procs))
	for i, p := range s.Procs {
		np := &Proc{Index: p.Index, TopProc: p.TopProc, cur: p.cur, status: p.status}
		np.stack = make([]*frame, len(p.stack))
		for fi, f := range p.stack {
			nf := &frame{code: f.code, cells: make([]Cell, len(f.cells)), callNode: f.callNode,
				retPC: f.retPC, pinned: f.pinned}
			for ci := range f.cells {
				fk.cellMap[&f.cells[ci]] = &nf.cells[ci]
			}
			np.stack[fi] = nf
			pairs = append(pairs, framePair{old: f, new: nf})
		}
		ns.Procs[i] = np
	}

	// Pass 2: copy the cell values, rewriting pointers through the map.
	// The hash bookkeeping is position-based, so it copies verbatim.
	for _, pr := range pairs {
		for ci := range pr.old.cells {
			oc := &pr.old.cells[ci]
			nc := &pr.new.cells[ci]
			nc.V = fk.value(oc.V)
			nc.hkey, nc.hc = oc.hkey, oc.hc
		}
	}

	ns.objs = make([]comm.Object, len(s.objs))
	for i, o := range s.objs {
		ns.objs[i] = o.Clone(func(v any) any { return fk.value(v.(Value)) })
	}
	return ns
}

// forker tracks cell identity across one Fork so every pointer in the
// clone lands on the clone's corresponding cell.
type forker struct {
	cellMap map[*Cell]*Cell
}

// value deep-copies v, remapping pointer targets into the clone.
func (fk *forker) value(v Value) Value {
	switch v.Kind {
	case KPtr:
		v.Ptr.Cell = fk.cell(v.Ptr.Cell)
		return v
	case KArray:
		arr := make([]Value, len(v.Arr))
		for i, e := range v.Arr {
			arr[i] = fk.value(e)
		}
		v.Arr = arr
		return v
	}
	return v
}

// cell maps an old cell to its clone. A cell outside the live frames —
// a stale pointer target kept reachable only through the pointer — is
// cloned on demand; the clone is registered before its value is copied
// so pointer cycles terminate.
func (fk *forker) cell(c *Cell) *Cell {
	if c == nil {
		return nil
	}
	if nc, ok := fk.cellMap[c]; ok {
		return nc
	}
	nc := &Cell{}
	fk.cellMap[c] = nc
	nc.V = fk.value(c.V)
	return nc
}
