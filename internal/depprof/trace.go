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
// The profile is built by a Builder attached as the Tracer of one
// uninstrumented execution, on either executor. The analysis pipeline
// attaches it to the reference run it makes anyway (core.RunReference),
// so a program executes uninstrumented once; Trace is the standalone form.
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
	b := NewBuilder(prog)
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

// Builder builds the dependence profile of one execution: attach it as
// the run's interp.Config.Tracer, then call Profile once the run is over.
// A Builder serves exactly one run and is not safe for concurrent use.
//
// Everything the hot callbacks touch is dense. Loops have program-wide ids
// and each block position its outermost-first chain of loop ids. Each
// active loop invocation owns the cell table at its depth of the active
// stack; the table is reset by an epoch bump and lists the slots its
// invocation touched, so closing an invocation costs only those cells. A
// loop's coverage is the difference of a running block-cost counter
// between its invocations' opening and closing. The exported maps are
// filled once, by Profile.
type Builder struct {
	fns   map[*ir.Func]*fnTable
	loops []loopInfo
	lps   []*LoopProfile // by loop id
	steps []int64        // coverage by loop id
	// contains[a] is a bitset over loop ids, allocated on a's first
	// observed descendant.
	contains [][]uint64

	frames []frameState
	active []invocation // across frames, innermost last
	tabs   []cellTable  // tabs[d] holds active[d]'s cells
	clock  int64        // block costs entered so far
}

// fnTable is one function's static share of the builder, by block
// position in Fn.Blocks.
type fnTable struct {
	fn     *ir.Func
	chains [][]int32      // loop ids containing the block, outermost first; nil without loops
	groups [][]instrGroup // the block's reduction-group accesses; nil without any
}

type instrGroup struct {
	in    ir.Instr
	group int32
}

type loopInfo struct {
	key    LoopKey
	header int32 // header block position
	single bool  // one-block loop: a header entry is a body execution
}

type frameState struct {
	tab    *fnTable
	pushed int          // invocations this frame opened that are still active
	groups []instrGroup // reduction-group accesses of the current block
}

type invocation struct {
	loop  int32
	iter  int64
	start int64 // clock at opening
}

// NewBuilder prepares a builder for every loop of prog. Reduction groups
// (affine.MemReductionGroups) are numbered program-wide: the per-function
// numbers all start at 1, and two functions' groups must not merge.
func NewBuilder(prog *ir.Program) *Builder {
	b := &Builder{fns: make(map[*ir.Func]*fnTable, len(prog.Funcs))}
	groupBase := int32(0)
	for _, fn := range prog.Funcs {
		t := &fnTable{fn: fn}
		b.fns[fn] = t
		loops := cfg.Loops(prog, fn)
		base := int32(len(b.loops))
		for _, l := range loops {
			key := LoopKey{fn.Name, l.Index}
			b.loops = append(b.loops, loopInfo{key: key, header: int32(fn.Position(l.Header)), single: len(l.Blocks) == 1})
			b.lps = append(b.lps, &LoopProfile{Key: key, Loop: l})
		}
		if len(loops) > 0 {
			t.chains = make([][]int32, len(fn.Blocks))
			for p, blk := range fn.Blocks {
				var chain []*cfg.Loop
				for _, l := range loops {
					if l.Blocks[blk] {
						chain = append(chain, l)
					}
				}
				// Loops containing one block are nested: depths are distinct.
				for i := 1; i < len(chain); i++ {
					for j := i; j > 0 && chain[j].Depth < chain[j-1].Depth; j-- {
						chain[j], chain[j-1] = chain[j-1], chain[j]
					}
				}
				for _, l := range chain {
					t.chains[p] = append(t.chains[p], base+int32(l.Index))
				}
			}
		}
		groups := affine.MemReductionGroups(fn)
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
	b.steps = make([]int64, len(b.loops))
	b.contains = make([][]uint64, len(b.loops))
	return b
}

// Profile closes every invocation still open (the program ended inside
// loops) and returns the profile. steps is the run's retired instruction
// count; truncated marks a run its step budget cut short.
func (b *Builder) Profile(steps int64, truncated bool) *Profile {
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
	for id, l := range b.loops {
		prof.Loops[l.key] = b.lps[id]
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
	if t := f.tab; t != nil && (t.chains != nil || t.groups != nil) {
		var chain []int32
		f.groups = nil
		p := int32(t.fn.Position(blk))
		if p >= 0 {
			if t.chains != nil {
				chain = t.chains[p]
			}
			if t.groups != nil {
				f.groups = t.groups[p]
			}
		}
		// The frame's active invocations are an outermost-first prefix of
		// the previous block's chain; the ones that still contain blk are
		// exactly its common prefix with blk's chain.
		base := len(b.active) - f.pushed
		keep := 0
		for keep < f.pushed && keep < len(chain) && b.active[base+keep].loop == chain[keep] {
			keep++
		}
		for ; f.pushed > keep; f.pushed-- {
			b.close()
		}
		for _, l := range chain[keep:] {
			b.open(l)
			f.pushed++
		}
		// A header entry starts an invocation's next iteration; any other
		// block of the loop shows its body executed.
		for i := base; i < len(b.active); i++ {
			inv := &b.active[i]
			lp := b.lps[inv.loop]
			if b.loops[inv.loop].header == p {
				inv.iter++
				lp.Iterations++
				if b.loops[inv.loop].single {
					lp.BodyExecuted = true
				}
			} else {
				lp.BodyExecuted = true
			}
		}
	}
	b.clock += int64(len(blk.Instrs)) + 1
}

func (b *Builder) OnLoad(_ *interp.Frame, in *ir.Load, obj *ir.Object, idx int) {
	if len(b.active) == 0 {
		return
	}
	g := b.group(in)
	k := cellKey(obj, idx)
	for d := range b.active {
		iter := b.active[d].iter
		c := b.tabs[d].slot(k)
		if c.cur != iter {
			c.cur = iter
			c.flags &^= writtenInCur
		}
		if c.flags&writtenInCur == 0 {
			c.flags |= readFirst
			if c.lastW > 0 && c.lastW != iter {
				c.flags |= raw
			}
		}
		c.lastR = iter
		c.joinGroup(g)
	}
}

func (b *Builder) OnStore(_ *interp.Frame, in *ir.Store, obj *ir.Object, idx int) {
	if len(b.active) == 0 {
		return
	}
	g := b.group(in)
	k := cellKey(obj, idx)
	for d := range b.active {
		iter := b.active[d].iter
		c := b.tabs[d].slot(k)
		if c.cur != iter {
			c.cur = iter
			c.flags &^= writtenInCur
		}
		if c.lastR > 0 && c.lastR != iter {
			c.flags |= war
		}
		if c.lastW > 0 && c.lastW != iter {
			c.flags |= waw
		}
		c.lastW = iter
		c.flags |= writtenInCur
		c.joinGroup(g)
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

// open starts an invocation of loop l on top of the active stack.
func (b *Builder) open(l int32) {
	b.lps[l].Invocations++
	for i := range b.active {
		a := b.active[i].loop
		row := b.contains[a]
		if row == nil {
			row = make([]uint64, (len(b.loops)+63)/64)
			b.contains[a] = row
		}
		row[l>>6] |= 1 << (l & 63)
	}
	d := len(b.active)
	b.active = append(b.active, invocation{loop: l, start: b.clock})
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
	b.steps[inv.loop] += b.clock - inv.start
	lp := b.lps[inv.loop]
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

// Per-cell flags.
const (
	writtenInCur uint8 = 1 << iota // written in iteration cur
	readFirst                      // read before written in some iteration
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
type cell struct {
	key   uint64
	epoch uint32
	group int32 // noGroup until accessed, mixedGroup, or a group id
	cur   int64 // iteration of the last access
	lastW int64 // iteration of the last write; 0 = none
	lastR int64 // iteration of the last read; 0 = none
	flags uint8
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
// power-of-two sized, linear probing, keyed like interp's loop recorder
// (object ID << 32 | index, mixed by a bijection, so distinct cells never
// alias). A slot stamped with an older epoch is empty, so reset is O(1);
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
