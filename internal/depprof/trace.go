// Package depprof reimplements profile-driven dependence-based parallelism
// detection in the style of Tournavitis et al. [8]: a full memory-access
// trace of one workload execution, per-loop-invocation detection of loop-
// carried RAW/WAR/WAW dependences, dynamic array privatization (write-first
// test), memory reduction groups, and static scalar classification
// (induction, reduction, min/max) — a loop is reported parallelizable iff
// every remaining carried dependence is benign.
//
// Crucially — and this is the paper's central contrast — the pointer-chase
// iterator of a PLDS loop (ptr = ptr->next) is a loop-carried scalar
// dependence that is neither induction nor reduction, so dependence
// profiling must reject every PLDS traversal that DCA accepts.
//
// The Builder is the one observer of the analysis pipeline's uninstrumented
// reference run (core.RunReference), attached as its Tracer on either
// executor. It always records DCA's per-loop evidence (LoopRun) and, on
// request, the dependence profile, so a program executes uninstrumented
// once; Trace is the profile's standalone form.
package depprof

import (
	"fmt"
	"math/bits"

	"dca/internal/affine"
	"dca/internal/cfg"
	"dca/internal/interp"
	"dca/internal/ir"
	"dca/internal/sandbox"
)

// LoopKey identifies a loop by function name and loop index.
type LoopKey struct {
	Fn    string
	Index int
}

// LoopProfile aggregates dynamic facts about one loop across invocations.
type LoopProfile struct {
	Key         LoopKey
	Loop        *cfg.Loop
	Invocations int
	// Iterations counts loop-header entries; BodyExecuted reports whether
	// any body block (or the header itself for single-block loops) ever ran.
	Iterations   int64
	BodyExecuted bool
	// Carried dependences observed anywhere, after per-address analysis.
	FatalRAW bool // carried RAW outside any reduction group
	NeedPriv bool // some address carried WAR/WAW without RAW
	// ReductionAddrs: some addresses were pure reduction-group traffic.
	ReductionAddrs bool
	addrFatalRAW   int
	addrNeedPriv   int
	addrPrivFail   int
}

// Profile is the result of tracing one program execution.
type Profile struct {
	Loops map[LoopKey]*LoopProfile
	Steps int64
	// LoopSteps counts dynamic instructions attributed to each loop
	// (including callees), for coverage accounting.
	LoopSteps map[LoopKey]int64
	// Contains records observed dynamic nesting: Contains[a][b] means an
	// invocation of b ran inside an invocation of a (possibly across
	// calls). Loop selection uses it to parallelize outermost loops only.
	Contains map[LoopKey]map[LoopKey]bool
	// Truncated reports that the traced execution ran out of its step
	// budget: the profile covers only the prefix that executed. Verdicts
	// drawn from it are sound for what ran but may miss later behaviour.
	Truncated bool
}

// Trace executes the program from main under a step budget (0 means the
// executor's default) and returns its dependence profile. It runs on the
// bytecode VM, like every sandboxed execution.
func Trace(prog *ir.Program, maxSteps int64) (*Profile, error) {
	b := NewBuilder(prog, true)
	oc := sandbox.Run(nil, prog, interp.Config{Tracer: b}, sandbox.Limits{MaxSteps: maxSteps}, nil)
	switch {
	case oc.OK():
		return b.Profile(oc.Result.Steps, false), nil
	case oc.Trap.Kind == sandbox.Budget:
		// Budget exhaustion is an analysis-resource limit, not a program
		// fault: keep the partial profile and mark it truncated.
		return b.Profile(oc.Trap.Steps, true), nil
	case oc.Trap.Kind == sandbox.Fault:
		return nil, fmt.Errorf("depprof: traced program faulted: %w", oc.Trap.Err)
	default:
		return nil, fmt.Errorf("depprof: traced run failed: %w", oc.Trap)
	}
}

// LoopRun is what one run observed of one loop: the evidence DCA decides
// loops from without an instrumented golden run.
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

// Builder observes one execution, attached as its interp.Config.Tracer. It
// records, for every natural loop of the program, the evidence Loop
// returns:
//
//   - Invocations: entries into the loop from outside it.
//   - Entries into every block of a function with loops, so a caller can
//     count the entries into a loop's payload-entry block once separation
//     has named it.
//   - Re-entry: the loop was opened while an invocation of it was active
//     (recursion through the loop).
//   - Conflict: some heap cell written in one iteration was read or
//     written by another iteration of the same invocation. A store of the
//     value the cell already holds (a silent store) counts as a read: the
//     instrumented golden run this evidence stands in for writes every
//     environment field back each iteration. A loop stops being tracked at
//     its first conflict or re-entry.
//
// A builder made with the profile also builds the dependence profile, which
// Profile returns once the run is over. A Builder serves exactly one run and
// is not safe for concurrent use.
//
// An iteration is a segment of the run between two entries into the loop's
// header, and every heap access counts for every active invocation, callees'
// accesses included. Everything the hot callbacks touch is dense. Loops have
// program-wide ids; each block position has the id of the innermost loop
// containing it, and each loop its chain of enclosing loop ids, outermost
// first. Each active loop invocation owns the cell table at its depth of the
// active stack; the table is reset by an epoch bump and lists the slots its
// invocation touched, so closing an invocation costs only those cells.
//
// Without the profile the builder keeps block tables only for functions
// with loops, skips reduction groups, coverage and nesting, and returns from
// a load or store at once while no invocation is tracked. With it, a loop's
// coverage is the difference of a running block-cost counter between its
// invocations' opening and closing, and Profile fills the profile's maps
// once, reading header entries and body executions off the block entries.
type Builder struct {
	profile bool
	fns     map[*ir.Func]*fnTable
	loops   []loopInfo
	tracked int // active invocations recording their loop's footprint

	frames []frameState
	active []invocation // across frames, innermost last
	tabs   []cellTable  // tabs[d] holds active[d]'s cells

	// The profile's share; nil without it.
	lps   []LoopProfile // by loop id
	steps []int64       // coverage by loop id
	// contains[a] is a bitset over loop ids, allocated on a's first
	// observed descendant.
	contains [][]uint64
	clock    int64 // block costs entered so far
}

// fnTable is one function's static share of the builder, by block
// position in Fn.Blocks.
type fnTable struct {
	fn      *ir.Func
	base    int32          // loop id of the function's loop 0
	nloops  int32          // loops of the function
	inner   []int32        // loop id of the innermost loop containing the block, -1 if none; nil without loops
	entries []int64        // entries into the block; nil without loops
	groups  [][]instrGroup // the block's reduction-group accesses; nil without any
}

type instrGroup struct {
	in    ir.Instr
	group int32
}

type loopInfo struct {
	key         LoopKey
	loop        *cfg.Loop
	chain       []int32 // ids of the loop and the loops enclosing it, outermost first
	header      int32   // header block position
	single      bool    // one-block loop: a header entry is a body execution
	reentered   bool
	conflict    bool
	active      int32 // invocations on the active stack
	invocations int64
}

// tracked reports whether the loop's footprint is still being recorded.
func (l *loopInfo) tracked() bool { return !l.conflict && !l.reentered }

type frameState struct {
	tab    *fnTable
	pushed int          // invocations this frame opened that are still active
	groups []instrGroup // reduction-group accesses of the current block
}

type invocation struct {
	loop    int32
	tracked bool // counted in Builder.tracked
	iter    int64
	start   int64 // clock at opening
}

// NewBuilder prepares a builder for every loop of prog; profile asks for
// the dependence profile as well as the evidence. Reduction groups
// (affine.MemReductionGroups) are numbered program-wide: the per-function
// numbers all start at 1, and two functions' groups must not merge.
func NewBuilder(prog *ir.Program, profile bool) *Builder {
	b := &Builder{profile: profile, fns: make(map[*ir.Func]*fnTable, len(prog.Funcs))}
	groupBase := int32(0)
	for _, fn := range prog.Funcs {
		loops := cfg.Loops(prog, fn)
		var groups map[ir.Instr]int
		if profile {
			groups = affine.MemReductionGroups(fn)
		}
		if len(loops) == 0 && len(groups) == 0 {
			continue
		}
		t := &fnTable{fn: fn, base: int32(len(b.loops)), nloops: int32(len(loops))}
		b.fns[fn] = t
		if len(loops) > 0 {
			// A loop's chain is its ancestors and itself; the loops containing
			// a block are the chain of the deepest one.
			n := 0
			for _, l := range loops {
				n += l.Depth
			}
			flat := make([]int32, n)
			for _, l := range loops {
				chain := flat[:l.Depth:l.Depth]
				flat = flat[l.Depth:]
				for x := l; x != nil; x = x.Parent {
					chain[x.Depth-1] = t.base + int32(x.Index)
				}
				b.loops = append(b.loops, loopInfo{key: LoopKey{fn.Name, l.Index}, loop: l, chain: chain,
					header: int32(fn.Position(l.Header)), single: len(l.Blocks) == 1})
			}
			t.inner = make([]int32, len(fn.Blocks))
			t.entries = make([]int64, len(fn.Blocks))
			for p := range t.inner {
				t.inner[p] = -1
			}
			for _, l := range loops {
				for blk := range l.Blocks {
					if p := fn.Position(blk); p >= 0 && (t.inner[p] < 0 || l.Depth > len(b.loops[t.inner[p]].chain)) {
						t.inner[p] = t.base + int32(l.Index)
					}
				}
			}
		}
		maxGroup := int32(0)
		for _, g := range groups {
			maxGroup = max(maxGroup, int32(g))
		}
		if len(groups) > 0 {
			t.groups = make([][]instrGroup, len(fn.Blocks))
			for p, blk := range fn.Blocks {
				for _, in := range blk.Instrs {
					if g, ok := groups[in]; ok {
						t.groups[p] = append(t.groups[p], instrGroup{in: in, group: groupBase + int32(g)})
					}
				}
			}
		}
		groupBase += maxGroup
	}
	if profile {
		b.lps = make([]LoopProfile, len(b.loops))
		for id, l := range b.loops {
			b.lps[id] = LoopProfile{Key: l.key, Loop: l.loop}
		}
		b.steps = make([]int64, len(b.loops))
		b.contains = make([][]uint64, len(b.loops))
	}
	return b
}

// Loop returns what the run observed of fn's loop with the given cfg.Loops
// index, counting its iterations as the entries into the block at position
// entry of fn.Blocks — the loop's payload-entry block. ok is false when fn
// has no such loop or block.
func (b *Builder) Loop(fn *ir.Func, index, entry int) (run LoopRun, ok bool) {
	t := b.fns[fn]
	if t == nil || index < 0 || index >= int(t.nloops) || entry < 0 || entry >= len(t.entries) {
		return LoopRun{}, false
	}
	id := t.base + int32(index)
	l := &b.loops[id]
	return LoopRun{
		Invocations: l.invocations,
		Iterations:  t.entries[entry],
		Reentered:   l.reentered,
		Disjoint:    !l.conflict && t.inner[entry] == id,
	}, true
}

// Profile closes every invocation still open (the program ended inside
// loops) and returns the profile, nil for a builder made without it. steps
// is the run's retired instruction count; truncated marks a run its step
// budget cut short.
func (b *Builder) Profile(steps int64, truncated bool) *Profile {
	if !b.profile {
		return nil
	}
	for len(b.active) > 0 {
		b.close()
	}
	prof := &Profile{
		Loops:     make(map[LoopKey]*LoopProfile, len(b.loops)),
		Steps:     steps,
		LoopSteps: map[LoopKey]int64{},
		Contains:  map[LoopKey]map[LoopKey]bool{},
		Truncated: truncated,
	}
	// A block is entered only while the loops containing it are active, so
	// the entry counts say which loops ran their body, and a header's
	// entries are its loop's iterations.
	for _, t := range b.fns {
		for p, n := range t.entries {
			if n == 0 || t.inner[p] < 0 {
				continue
			}
			for _, id := range b.loops[t.inner[p]].chain {
				l, lp := &b.loops[id], &b.lps[id]
				if l.header == int32(p) {
					lp.Iterations = n
				}
				if l.header != int32(p) || l.single {
					lp.BodyExecuted = true
				}
			}
		}
	}
	for id, l := range b.loops {
		lp := &b.lps[id]
		lp.Invocations = int(l.invocations)
		prof.Loops[l.key] = lp
		if b.steps[id] > 0 {
			prof.LoopSteps[l.key] = b.steps[id]
		}
		if row := b.contains[id]; row != nil {
			m := map[LoopKey]bool{}
			for w, word := range row {
				for ; word != 0; word &= word - 1 {
					m[b.loops[w*64+bits.TrailingZeros64(word)].key] = true
				}
			}
			prof.Contains[l.key] = m
		}
	}
	return prof
}

// ---------------------------------------------------------------- Tracer

func (b *Builder) OnCall(fr *interp.Frame) {
	b.frames = append(b.frames, frameState{tab: b.fns[fr.Fn]})
}

func (b *Builder) OnRet(_ *interp.Frame) {
	f := &b.frames[len(b.frames)-1]
	for ; f.pushed > 0; f.pushed-- {
		b.close()
	}
	b.frames = b.frames[:len(b.frames)-1]
}

func (b *Builder) OnBlock(_ *interp.Frame, blk *ir.Block) {
	f := &b.frames[len(b.frames)-1]
	if t := f.tab; t != nil {
		p := int32(t.fn.Position(blk))
		l := int32(-1) // the innermost loop containing blk
		if p >= 0 && t.inner != nil {
			t.entries[p]++
			l = t.inner[p]
		}
		if t.groups != nil {
			f.groups = nil
			if p >= 0 {
				f.groups = t.groups[p]
			}
		}
		// The frame's active invocations are the chain of the loop the
		// previous block lay in, innermost last. Of those, the ones that
		// still contain blk are the common prefix with l's chain.
		cur := int32(-1)
		if f.pushed > 0 {
			cur = b.active[len(b.active)-1].loop
		}
		if cur != l {
			var chain []int32
			if l >= 0 {
				chain = b.loops[l].chain
			}
			base := len(b.active) - f.pushed
			keep := 0
			for keep < f.pushed && keep < len(chain) && b.active[base+keep].loop == chain[keep] {
				keep++
			}
			for ; f.pushed > keep; f.pushed-- {
				b.close()
			}
			for _, id := range chain[keep:] {
				b.open(id)
				f.pushed++
			}
		}
		// A header entry starts the next iteration of its loop's invocation,
		// now the innermost.
		if l >= 0 && b.loops[l].header == p {
			b.active[len(b.active)-1].iter++
		}
	}
	if b.profile {
		b.clock += int64(len(blk.Instrs)) + 1
	}
}

func (b *Builder) OnLoad(_ *interp.Frame, in *ir.Load, obj *ir.Object, idx int) {
	if len(b.active) == 0 || !b.profile && b.tracked == 0 {
		return
	}
	g := b.group(in)
	k := cellKey(obj, idx)
	for d := range b.active {
		inv := &b.active[d]
		if !b.profile && !inv.tracked {
			continue
		}
		c := b.tabs[d].slot(k)
		if inv.tracked {
			b.read(inv, c)
		}
		if !b.profile {
			continue
		}
		iter := inv.iter
		if c.lastW != iter {
			// Read before any write of this iteration.
			c.flags |= readFirst
			if c.lastW > 0 {
				c.flags |= raw
			}
		}
		if c.firstR == 0 {
			c.firstR = iter
		}
		c.joinGroup(g)
	}
}

// OnStore reads the stored value from the frame: the event fires before the
// write, and a store's source is a constant or one of fr's locals (see
// interp.Tracer).
func (b *Builder) OnStore(fr *interp.Frame, in *ir.Store, obj *ir.Object, idx int) {
	if len(b.active) == 0 || !b.profile && b.tracked == 0 {
		return
	}
	silent := false
	if b.tracked > 0 {
		v := in.Src.Const
		if in.Src.Local != nil {
			v = fr.Locals[in.Src.Local.Index]
		}
		silent = v.Equal(obj.Elems[idx])
	}
	g := b.group(in)
	k := cellKey(obj, idx)
	for d := range b.active {
		inv := &b.active[d]
		if !b.profile && !inv.tracked {
			continue
		}
		c := b.tabs[d].slot(k)
		if inv.tracked {
			if silent {
				b.read(inv, c)
			} else {
				b.write(inv, c)
			}
		}
		if !b.profile {
			continue
		}
		// An earlier iteration read the cell exactly when its first reader
		// is not this one: iterations only grow within an invocation.
		iter := inv.iter
		if c.firstR > 0 && c.firstR != iter {
			c.flags |= war
		}
		if c.lastW > 0 && c.lastW != iter {
			c.flags |= waw
		}
		c.lastW = iter
		c.joinGroup(g)
	}
}

// read records a read of c by the current iteration of a tracked
// invocation.
func (b *Builder) read(inv *invocation, c *cell) {
	it := int32(inv.iter)
	switch {
	case c.writer != 0 && c.writer != it:
		b.markConflict(inv.loop)
	case c.reader == 0:
		c.reader = it
	case c.reader != it:
		c.reader = -1
	}
}

// write records a (non-silent) write of c by the current iteration of a
// tracked invocation.
func (b *Builder) write(inv *invocation, c *cell) {
	it := int32(inv.iter)
	if c.writer != 0 && c.writer != it || c.reader != 0 && c.reader != it {
		b.markConflict(inv.loop)
		return
	}
	c.writer = it
}

// markConflict stops recording loop l's footprint at its first conflict.
func (b *Builder) markConflict(l int32) {
	b.loops[l].conflict = true
	b.untrack(l)
}

// untrack stops loop l's active invocations from recording its footprint.
func (b *Builder) untrack(l int32) {
	for i := range b.active {
		if inv := &b.active[i]; inv.loop == l && inv.tracked {
			inv.tracked = false
			b.tracked--
		}
	}
}

// group returns the program-wide reduction group of the executing
// frame's access in, or noGroup.
func (b *Builder) group(in ir.Instr) int32 {
	for _, ig := range b.frames[len(b.frames)-1].groups {
		if ig.in == in {
			return ig.group
		}
	}
	return noGroup
}

// open starts an invocation of loop l on top of the active stack. Opening
// a loop while an invocation of it is active is a re-entry.
func (b *Builder) open(l int32) {
	li := &b.loops[l]
	li.invocations++
	if li.active > 0 && !li.reentered {
		li.reentered = true
		b.untrack(l)
	}
	li.active++
	inv := invocation{loop: l, tracked: li.tracked(), start: b.clock}
	if inv.tracked {
		b.tracked++
	}
	if b.profile {
		for i := range b.active {
			a := b.active[i].loop
			row := b.contains[a]
			if row == nil {
				row = make([]uint64, (len(b.loops)+63)/64)
				b.contains[a] = row
			}
			row[l>>6] |= 1 << (l & 63)
		}
	}
	d := len(b.active)
	b.active = append(b.active, inv)
	if d == len(b.tabs) {
		b.tabs = append(b.tabs, cellTable{})
	}
	b.tabs[d].reset()
}

// close ends the innermost active invocation, folding each cell it
// touched into its loop's profile.
func (b *Builder) close() {
	d := len(b.active) - 1
	inv := b.active[d]
	b.active = b.active[:d]
	b.loops[inv.loop].active--
	if inv.tracked {
		b.tracked--
	}
	if !b.profile {
		return
	}
	b.steps[inv.loop] += b.clock - inv.start
	lp := &b.lps[inv.loop]
	t := &b.tabs[d]
	for _, s := range t.touched {
		c := &t.cells[s]
		switch {
		case c.group >= 0:
			// All carried traffic on this address is one op= group.
			lp.ReductionAddrs = true
		case c.flags&raw != 0:
			lp.FatalRAW = true
			lp.addrFatalRAW++
		case c.flags&(war|waw) != 0:
			lp.NeedPriv = true
			lp.addrNeedPriv++
			if c.flags&readFirst != 0 {
				lp.addrPrivFail++
			}
		}
	}
}

// Per-cell profile flags.
const (
	readFirst uint8 = 1 << iota // read before written in some iteration
	raw
	war
	waw
)

// Cell group states besides a group id.
const (
	noGroup    int32 = -1 // unset, or an access outside every group
	mixedGroup int32 = -2
)

// cell is one heap address's access history within one invocation.
// Iterations are numbered from 1. The profile's fields count every store
// as a write; the evidence's reader and writer count a silent store as a
// read, and only while the invocation is tracked.
type cell struct {
	key    uint64
	lastW  int64 // iteration of the last write; 0 = none
	firstR int64 // iteration of the first read; 0 = none
	epoch  uint32
	group  int32 // noGroup until accessed, mixedGroup, or a group id
	reader int32 // 0 none, -1 several iterations, else the one reading iteration
	writer int32 // 0 none, else the one writing iteration
	flags  uint8
}

func (c *cell) joinGroup(g int32) {
	switch {
	case g == noGroup:
		c.group = mixedGroup // accessed by a non-reduction instruction
	case c.group == noGroup:
		c.group = g
	case c.group != g:
		c.group = mixedGroup
	}
}

// cellTable is an open-addressed hash table of one invocation's cells:
// power-of-two sized, linear probing. Cells are keyed by (object ID,
// element index): object IDs are minted sequentially per run and element
// indices are bounded by the 64M array cap, so id<<32|idx is injective and
// the multiply/xor-shift mix below is a bijection, so distinct cells never
// alias. A slot stamped with an older epoch is empty, so reset is O(1);
// touched lists the current epoch's slots.
type cellTable struct {
	cells   []cell
	touched []int32
	epoch   uint32
}

func (t *cellTable) reset() {
	t.touched = t.touched[:0]
	t.epoch++
	if t.epoch == 0 {
		clear(t.cells)
		t.epoch = 1
	}
}

func cellKey(obj *ir.Object, idx int) uint64 {
	k := uint64(obj.ID)<<32 | uint64(uint32(idx))
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	return k
}

func (t *cellTable) slot(k uint64) *cell {
	if t.cells == nil {
		t.cells = make([]cell, 64)
	}
	mask := uint64(len(t.cells) - 1)
	for i := k & mask; ; i = (i + 1) & mask {
		c := &t.cells[i]
		if c.epoch != t.epoch {
			if len(t.touched) >= len(t.cells)*3/4 {
				t.grow()
				return t.slot(k)
			}
			t.touched = append(t.touched, int32(i))
			*c = cell{key: k, epoch: t.epoch, group: noGroup}
			return c
		}
		if c.key == k {
			return c
		}
	}
}

// grow doubles the table, carrying over the current epoch's cells.
func (t *cellTable) grow() {
	old := t.cells
	t.cells = make([]cell, len(old)*2)
	mask := uint64(len(t.cells) - 1)
	for n, s := range t.touched {
		c := old[s]
		j := c.key & mask
		for t.cells[j].epoch == t.epoch {
			j = (j + 1) & mask
		}
		t.cells[j] = c
		t.touched[n] = int32(j)
	}
}
