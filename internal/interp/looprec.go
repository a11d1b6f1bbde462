package interp

import (
	"dca/internal/cfg"
	"dca/internal/ir"
)

// LoopRecorder observes every natural loop of a program during one
// execution — the uninstrumented reference run — and records, per loop,
// what DCA otherwise learns from one instrumented golden run per loop:
//
//   - Invocations: entries into the loop from outside it.
//   - Iteration evidence: entries into every block of a function with
//     loops, so a caller can count the entries into a loop's payload-entry
//     block once separation has named it.
//   - Re-entry: whether the loop was entered again while an invocation of
//     it was still active (recursion through the loop).
//   - Conflict: whether any heap cell written in one iteration was read or
//     written by another iteration of the same invocation.
//
// An iteration is a segment of the run between two entries into the loop's
// header; every heap access on the way is attributed to the current
// segment of every active loop, callees included. A store of the value a
// cell already holds (a silent store) counts as a read.
//
// The recorder is deliberately not a Tracer: both executors feed it
// directly at block entry, frame return, load and store, so recording keeps
// the run on the bytecode VM. Loops stop being tracked after their first
// conflict or re-entry, and accesses outside every tracked loop cost one
// comparison.
type LoopRecorder struct {
	byFn  map[*ir.Func]*FuncLoops
	loops []loopState
	acts  []activation // active loop invocations, innermost last
	live  int          // activations still tracking their footprint
}

// FuncLoops is one function's share of a LoopRecorder: per block position
// in Fn.Blocks, the innermost loop containing it and whether it is that
// loop's header, plus the entry counts the run accumulates.
type FuncLoops struct {
	r       *LoopRecorder
	fn      *ir.Func
	inner   []int32 // recorder loop id of the innermost loop containing the block, -1 if none
	header  []bool
	entries []int64
	ids     []int32 // recorder loop id of each cfg.LoopsOf loop index
}

type loopState struct {
	parent      int32 // enclosing loop of the same function, -1 if none
	invocations int64
	active      int32 // live activations of this loop
	reentered   bool
	conflict    bool
	cells       cellTable
}

// tracked reports whether the loop's footprint is still being recorded.
func (s *loopState) tracked() bool { return !s.conflict && !s.reentered }

type activation struct {
	loop    int32
	depth   int   // Frame.Depth of the frame running the loop
	seg     int32 // current iteration of this invocation
	tracked bool  // counted in LoopRecorder.live
}

// NewLoopRecorder prepares a recorder for every loop of every function of
// prog. Attach it through Config.Loops for exactly one execution.
func NewLoopRecorder(prog *ir.Program) *LoopRecorder {
	r := &LoopRecorder{byFn: map[*ir.Func]*FuncLoops{}}
	for _, fn := range prog.Funcs {
		_, loops := cfg.LoopsOf(fn)
		if len(loops) == 0 {
			continue
		}
		fl := &FuncLoops{
			r:       r,
			fn:      fn,
			inner:   make([]int32, len(fn.Blocks)),
			header:  make([]bool, len(fn.Blocks)),
			entries: make([]int64, len(fn.Blocks)),
			ids:     make([]int32, len(loops)),
		}
		for i := range fl.inner {
			fl.inner[i] = -1
		}
		base := int32(len(r.loops))
		for i, l := range loops {
			fl.ids[i] = base + int32(i)
			parent := int32(-1)
			if l.Parent != nil {
				parent = base + int32(l.Parent.Index)
			}
			r.loops = append(r.loops, loopState{parent: parent})
		}
		// Each block belongs to the deepest loop containing it.
		depth := make([]int, len(fn.Blocks))
		for i, l := range loops {
			for b := range l.Blocks {
				if p := fl.Position(b); p >= 0 && l.Depth > depth[p] {
					fl.inner[p], depth[p] = fl.ids[i], l.Depth
				}
			}
			if p := fl.Position(l.Header); p >= 0 {
				fl.header[p] = true
			}
		}
		r.byFn[fn] = fl
	}
	return r
}

// Func returns fn's block tables, or nil when fn has no loops (its blocks
// need no bookkeeping; its heap accesses still count for its callers'
// loops).
func (r *LoopRecorder) Func(fn *ir.Func) *FuncLoops { return r.byFn[fn] }

// Enter records control entering the block at position b of Fn.Blocks in
// the frame at the given call depth: it counts the entry, closes the
// frame's loop invocations the block lies outside of, and at a loop header
// either opens the loop's next iteration (coming from inside the loop) or a
// new invocation (coming from outside).
func (fl *FuncLoops) Enter(depth int, b int) {
	if uint(b) >= uint(len(fl.inner)) {
		return
	}
	fl.entries[b]++
	r := fl.r
	l := fl.inner[b]
	cur := int32(-1)
	if n := len(r.acts); n > 0 && r.acts[n-1].depth == depth {
		cur = r.acts[n-1].loop
	}
	if cur == l && !fl.header[b] {
		return
	}
	for n := len(r.acts); n > 0; n = len(r.acts) {
		a := &r.acts[n-1]
		if a.depth != depth || r.contains(a.loop, l) {
			break
		}
		r.pop()
	}
	if !fl.header[b] {
		return
	}
	if n := len(r.acts); n > 0 && r.acts[n-1].depth == depth && r.acts[n-1].loop == l {
		r.acts[n-1].seg++
		return
	}
	r.push(depth, l)
}

// Position returns b's position in Fn.Blocks, or -1 when b is not one of
// the function's blocks.
func (fl *FuncLoops) Position(b *ir.Block) int {
	if i := b.Index; i >= 0 && i < len(fl.fn.Blocks) && fl.fn.Blocks[i] == b {
		return i
	}
	for i, x := range fl.fn.Blocks {
		if x == b {
			return i
		}
	}
	return -1
}

// Return records the frame at the given call depth returning: every loop
// invocation it was running ends. When the outermost frame returns no
// invocation is left, so the cell tables are released.
func (r *LoopRecorder) Return(depth int) {
	for n := len(r.acts); n > 0 && r.acts[n-1].depth >= depth; n = len(r.acts) {
		r.pop()
	}
	if depth == 0 {
		for i := range r.loops {
			r.loops[i].cells = cellTable{}
		}
	}
}

// contains reports whether loop a is loop l or encloses it.
func (r *LoopRecorder) contains(a, l int32) bool {
	for x := l; x >= 0; x = r.loops[x].parent {
		if x == a {
			return true
		}
	}
	return false
}

func (r *LoopRecorder) push(depth int, l int32) {
	s := &r.loops[l]
	s.invocations++
	if s.active > 0 && !s.reentered {
		s.reentered = true
		r.untrack(l)
	}
	s.active++
	a := activation{loop: l, depth: depth}
	if s.tracked() {
		s.cells.newEpoch()
		a.tracked = true
		r.live++
	}
	r.acts = append(r.acts, a)
}

func (r *LoopRecorder) pop() {
	n := len(r.acts) - 1
	a := r.acts[n]
	r.acts = r.acts[:n]
	r.loops[a.loop].active--
	if a.tracked {
		r.live--
	}
}

// untrack stops recording loop l's footprint: its active invocations stop
// counting and its cell table is released.
func (r *LoopRecorder) untrack(l int32) {
	for i := range r.acts {
		if a := &r.acts[i]; a.loop == l && a.tracked {
			a.tracked = false
			r.live--
		}
	}
	r.loops[l].cells = cellTable{}
}

// Active reports whether some active loop still records its footprint.
// Executors check it before computing a store's silent-store comparison.
func (r *LoopRecorder) Active() bool { return r.live > 0 }

// OnLoad records a heap read of obj[idx].
func (r *LoopRecorder) OnLoad(obj *ir.Object, idx int) {
	if r.live == 0 {
		return
	}
	k := cellKey(obj, idx)
	for i := range r.acts {
		if a := &r.acts[i]; a.tracked {
			r.read(a, k)
		}
	}
}

// OnStore records a heap write of obj[idx]. same reports that the stored
// value equals (ir.Value.Equal) the cell's current content: dropping such a
// silent store changes nothing, so it is recorded as a read. This matters
// for the instrumented golden run the recorder stands in for, whose
// outlined payload writes every environment field back each iteration.
func (r *LoopRecorder) OnStore(obj *ir.Object, idx int, same bool) {
	if r.live == 0 {
		return
	}
	k := cellKey(obj, idx)
	for i := range r.acts {
		a := &r.acts[i]
		if !a.tracked {
			continue
		}
		if same {
			r.read(a, k)
			continue
		}
		c := r.loops[a.loop].cells.slot(k)
		if (c.writer >= 0 && c.writer != a.seg) || (c.reader != -1 && c.reader != a.seg) {
			r.markConflict(a.loop)
			continue
		}
		c.writer = a.seg
	}
}

func (r *LoopRecorder) read(a *activation, k uint64) {
	c := r.loops[a.loop].cells.slot(k)
	switch {
	case c.writer >= 0 && c.writer != a.seg:
		r.markConflict(a.loop)
	case c.reader == -1:
		c.reader = a.seg
	case c.reader != a.seg:
		c.reader = -2
	}
}

func (r *LoopRecorder) markConflict(l int32) {
	r.loops[l].conflict = true
	r.untrack(l)
}

// LoopRun is what one run observed of one loop.
type LoopRun struct {
	// Invocations counts entries into the loop from outside it.
	Invocations int64
	// Iterations counts entries into the loop's payload-entry block.
	Iterations int64
	// Reentered reports that the loop was entered again while one of its
	// invocations was active.
	Reentered bool
	// Disjoint reports that no heap cell written in one iteration was read
	// or written by another iteration of the same invocation, and that the
	// payload-entry block lies in the loop itself rather than in a loop
	// nested in it, so each iteration ran at most one payload. Only
	// meaningful when Reentered is false.
	Disjoint bool
}

// Loop returns what the run observed of fn's loop with the given
// cfg.LoopsOf index, counting its iterations as the entries into the block
// at position entry of fn.Blocks — the loop's payload-entry block. ok is
// false when fn has no such loop or block.
func (r *LoopRecorder) Loop(fn *ir.Func, index, entry int) (run LoopRun, ok bool) {
	fl := r.byFn[fn]
	if fl == nil || index < 0 || index >= len(fl.ids) || entry < 0 || entry >= len(fl.entries) {
		return LoopRun{}, false
	}
	id := fl.ids[index]
	s := &r.loops[id]
	return LoopRun{
		Invocations: s.invocations,
		Iterations:  fl.entries[entry],
		Reentered:   s.reentered,
		Disjoint:    !s.conflict && fl.inner[entry] == id,
	}, true
}

// cellTable is an open-addressed hash set of heap cells for one loop's
// current invocation: power-of-two sized, linear probing. Each invocation
// starts a new epoch, and a slot stamped with an older epoch counts as
// empty, so the table is reset in O(1) and holds one invocation's
// footprint at a time. Within an epoch nothing is deleted, so every probe
// chain of the current epoch stays unbroken.
//
// Cells are keyed by (object ID, element index). Object IDs are minted
// sequentially per run and element indices are bounded by the 64M array
// cap, so id<<32|idx is injective and the multiply/xor-shift mix below is a
// bijection: distinct cells never alias in the table.
type cellTable struct {
	keys  []uint64
	cells []cellState
	used  int // slots of the current epoch
	epoch uint32
}

type cellState struct {
	reader int32 // -1 none, -2 several iterations, else the single reading iteration
	writer int32 // -1 none, else the single writing iteration
	epoch  uint32
}

func (t *cellTable) newEpoch() {
	t.epoch++
	t.used = 0
}

func cellKey(obj *ir.Object, idx int) uint64 {
	k := uint64(obj.ID)<<32 | uint64(uint32(idx))
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	return k
}

func (t *cellTable) slot(k uint64) *cellState {
	if t.keys == nil {
		t.keys = make([]uint64, 64)
		t.cells = make([]cellState, 64)
	}
	mask := uint64(len(t.keys) - 1)
	for i := k & mask; ; i = (i + 1) & mask {
		c := &t.cells[i]
		if c.epoch != t.epoch {
			if t.used >= len(t.keys)*3/4 {
				t.grow()
				return t.slot(k)
			}
			t.used++
			t.keys[i] = k
			*c = cellState{reader: -1, writer: -1, epoch: t.epoch}
			return c
		}
		if t.keys[i] == k {
			return c
		}
	}
}

// grow doubles the table, carrying over only the current epoch's cells.
func (t *cellTable) grow() {
	oldKeys, oldCells := t.keys, t.cells
	t.keys = make([]uint64, len(oldKeys)*2)
	t.cells = make([]cellState, len(oldCells)*2)
	mask := uint64(len(t.keys) - 1)
	for i, k := range oldKeys {
		if oldCells[i].epoch != t.epoch {
			continue
		}
		j := k & mask
		for t.cells[j].epoch == t.epoch {
			j = (j + 1) & mask
		}
		t.keys[j] = k
		t.cells[j] = oldCells[i]
	}
}
