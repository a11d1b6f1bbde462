// Package iterrec implements generalized iterator recognition (§IV-A1 of
// the paper, after Manilov et al. CC'18): the iterator of a loop is the
// backward slice of its exit conditions, closed over register, memory and
// control dependences within the loop. Everything else is payload.
//
// The package also decides *separability*: whether the payload forms a
// single-entry region with a single continuation point, so that the
// instrumentation pass can (a) linearize the iterator into a record-only
// clone and (b) outline the payload behind one call site. Loops that fail
// these checks are reported with a reason and skipped by DCA, mirroring the
// loops the paper's prototype cannot transform.
package iterrec

import (
	"fmt"

	"dca/internal/cfg"
	"dca/internal/dataflow"
	"dca/internal/ir"
	"dca/internal/pointer"
)

// ContPoint is the single continuation where payload control flow rejoins
// the iterator: either the start of an iterator-side block (Index == 0) or
// an in-block position just after a payload run (Index > 0).
type ContPoint struct {
	Block *ir.Block
	Index int
}

// Run is the contiguous payload instruction range [Lo, Hi) of one block.
type Run struct{ Lo, Hi int }

// Separation is the result of iterator/payload separation for one loop.
type Separation struct {
	Fn   *ir.Func
	Loop *cfg.Loop

	// OK reports whether the loop is separable; Reason explains failures.
	OK     bool
	Reason string

	// IterInstrs is the iterator slice.
	IterInstrs map[ir.Instr]bool
	// Runs maps each payload-containing block to its payload range.
	Runs map[*ir.Block]Run
	// PayloadSide marks blocks whose terminator continues payload control
	// flow (pure-payload and empty payload-side blocks, and mixed blocks
	// whose payload run extends to the terminator).
	PayloadSide map[*ir.Block]bool
	// B0/P0 is the unique payload entry point.
	B0 *ir.Block
	P0 int
	// Cont is the unique continuation point.
	Cont ContPoint

	// IterLocals are iterator-defined locals consumed by the payload; their
	// per-iteration values are what iterator linearization records.
	IterLocals []*ir.Local
	// EnvLocals are the payload-accessed locals shared across iterations
	// (loop-carried scalars, live-in bases, live-out results); the outlined
	// payload accesses them through an environment object.
	EnvLocals []*ir.Local
	// Internal are payload locals private to one iteration.
	Internal dataflow.LocalSet
	// PayloadDefSet records the locals defined by payload instructions,
	// captured at separation time (the instrumentation pass later mutates
	// the loop's blocks, so it cannot be recomputed from them).
	PayloadDefSet dataflow.LocalSet

	// PayloadInstrCount counts payload instructions (for reports).
	PayloadInstrCount int
	// PayloadStores/PayloadCallStores count heap stores in the payload
	// (direct, and through callees); PayloadAllocs counts allocations.
	// Skeleton classification consumes these.
	PayloadStores     int
	PayloadCallStores int
	PayloadAllocs     int
}

// Onto returns the separation at the same place in fn, a Func.Clone of
// s.Fn that is not yet edited. Func.Clone keeps block order, local indices
// and instruction order, so blocks map by position, locals by index and
// iterator instructions by their position in their block. Every field is
// mapped: the copy is what Separate computes on fn, without recomputing
// any analysis. The loop maps through cfg.Loop.Onto.
func (s *Separation) Onto(fn *ir.Func) *Separation {
	block := func(b *ir.Block) *ir.Block {
		if b == nil {
			return nil
		}
		return fn.BlockFor(s.Fn, b)
	}
	locals := func(ls []*ir.Local) []*ir.Local {
		if ls == nil {
			return nil
		}
		out := make([]*ir.Local, len(ls))
		for i, l := range ls {
			out[i] = fn.LocalFor(l)
		}
		return out
	}
	set := func(ls dataflow.LocalSet) dataflow.LocalSet {
		if ls == nil {
			return nil
		}
		out := make(dataflow.LocalSet, len(ls))
		for l := range ls {
			out[fn.LocalFor(l)] = true
		}
		return out
	}
	m := &Separation{
		Fn:                fn,
		Loop:              s.Loop.Onto(fn),
		OK:                s.OK,
		Reason:            s.Reason,
		IterInstrs:        make(map[ir.Instr]bool, len(s.IterInstrs)),
		Runs:              make(map[*ir.Block]Run, len(s.Runs)),
		PayloadSide:       make(map[*ir.Block]bool, len(s.PayloadSide)),
		B0:                block(s.B0),
		P0:                s.P0,
		Cont:              ContPoint{Block: block(s.Cont.Block), Index: s.Cont.Index},
		IterLocals:        locals(s.IterLocals),
		EnvLocals:         locals(s.EnvLocals),
		Internal:          set(s.Internal),
		PayloadDefSet:     set(s.PayloadDefSet),
		PayloadInstrCount: s.PayloadInstrCount,
		PayloadStores:     s.PayloadStores,
		PayloadCallStores: s.PayloadCallStores,
		PayloadAllocs:     s.PayloadAllocs,
	}
	for b := range s.Loop.Blocks {
		for i, in := range b.Instrs {
			if s.IterInstrs[in] {
				m.IterInstrs[block(b).Instrs[i]] = true
			}
		}
	}
	for b, r := range s.Runs {
		m.Runs[block(b)] = r
	}
	for b := range s.PayloadSide {
		m.PayloadSide[block(b)] = true
	}
	return m
}

func fail(sep *Separation, format string, args ...any) *Separation {
	sep.OK = false
	sep.Reason = fmt.Sprintf(format, args...)
	return sep
}

// Separate computes the iterator slice and separability for one loop.
func Separate(g *cfg.Graph, pd *cfg.PostDom, loop *cfg.Loop, pa *pointer.Analysis, lv *dataflow.Liveness) *Separation {
	fn := g.Fn
	sep := &Separation{
		Fn:          fn,
		Loop:        loop,
		IterInstrs:  map[ir.Instr]bool{},
		Runs:        map[*ir.Block]Run{},
		PayloadSide: map[*ir.Block]bool{},
	}

	// --- 1. Collect loop instructions and register def map. ---
	inLoop := func(b *ir.Block) bool { return loop.Blocks[b] }
	type pos struct {
		b   *ir.Block
		idx int
	}
	where := map[ir.Instr]pos{}
	defs := map[*ir.Local][]ir.Instr{}
	var allInstrs []ir.Instr
	for _, b := range orderedBlocks(g, loop) {
		for i, in := range b.Instrs {
			where[in] = pos{b, i}
			allInstrs = append(allInstrs, in)
			if d := in.Def(); d != nil {
				defs[d] = append(defs[d], in)
			}
		}
	}

	// --- 2. Memory access summaries per instruction. ---
	readRegions := map[ir.Instr]pointer.RegionSet{}
	writeRegions := map[ir.Instr]pointer.RegionSet{}
	for _, in := range allInstrs {
		switch i := in.(type) {
		case *ir.Load:
			rs := pointer.RegionSet{}
			for _, r := range pa.AccessRegions(i) {
				rs.Add(r)
			}
			readRegions[in] = rs
		case *ir.Store:
			ws := pointer.RegionSet{}
			for _, r := range pa.AccessRegions(i) {
				ws.Add(r)
			}
			writeRegions[in] = ws
		case *ir.Call:
			if mr := pa.CallEffects(i); mr != nil {
				readRegions[in] = mr.Reads
				writeRegions[in] = mr.Writes
			}
		}
	}

	// --- 3. Backward slice of exit conditions. ---
	var work []ir.Instr
	add := func(in ir.Instr) {
		if in != nil && !sep.IterInstrs[in] {
			sep.IterInstrs[in] = true
			work = append(work, in)
		}
	}
	addCondDefs := func(o ir.Operand) {
		if o.Local != nil {
			for _, d := range defs[o.Local] {
				add(d)
			}
		}
	}
	// Seed: conditions of blocks with exit edges, plus their controlling
	// branches inside the loop.
	seedBlock := func(b *ir.Block) {
		if t, ok := b.Term.(*ir.If); ok {
			addCondDefs(t.Cond)
		}
		for _, a := range pd.ControllingBranches(b) {
			if inLoop(a) {
				if t, ok := a.Term.(*ir.If); ok {
					addCondDefs(t.Cond)
				}
			}
		}
	}
	for _, b := range loop.ExitSrcs {
		seedBlock(b)
	}
	// Closure.
	for len(work) > 0 {
		in := work[len(work)-1]
		work = work[:len(work)-1]
		// Register dependences.
		for _, u := range in.Uses() {
			if u.Local != nil {
				for _, d := range defs[u.Local] {
					add(d)
				}
			}
		}
		// Memory dependences: reads of in depend on loop writes to
		// intersecting regions.
		if rr := readRegions[in]; len(rr) > 0 {
			for _, w := range allInstrs {
				if wr := writeRegions[w]; len(wr) > 0 && rr.Intersects(wr) {
					add(w)
				}
			}
		}
		// Control dependences: the conditions deciding whether in runs.
		for _, a := range pd.ControllingBranches(where[in].b) {
			if inLoop(a) {
				if t, ok := a.Term.(*ir.If); ok {
					addCondDefs(t.Cond)
				}
			}
		}
	}

	// --- 4. Per-block payload runs + contiguity. ---
	payloadCount := 0
	for _, b := range orderedBlocks(g, loop) {
		lo, hi := -1, -1
		for i, in := range b.Instrs {
			if !sep.IterInstrs[in] {
				if lo == -1 {
					lo = i
				}
				if lo != -1 && hi != -1 && i > hi {
					return fail(sep, "payload instructions not contiguous in block %s", b.Name)
				}
				hi = i + 1
				payloadCount++
			} else if lo != -1 && hi == i {
				// iterator instr after payload started: suffix begins; any
				// later payload instr triggers the check above.
				continue
			}
		}
		if lo != -1 {
			sep.Runs[b] = Run{Lo: lo, Hi: hi}
		}
	}
	sep.PayloadInstrCount = payloadCount
	for _, in := range allInstrs {
		if sep.IterInstrs[in] {
			continue
		}
		switch i := in.(type) {
		case *ir.Store:
			sep.PayloadStores++
		case *ir.Alloc:
			sep.PayloadAllocs++
		case *ir.Call:
			if mr := pa.CallEffects(i); mr != nil && len(mr.Writes) > 0 {
				sep.PayloadCallStores++
			}
		}
	}
	if payloadCount == 0 {
		return fail(sep, "empty payload: loop is pure iterator")
	}

	// --- 5. Block sides. ---
	// A block is payload-side when its terminator continues payload control
	// flow: payload run reaching the end of the block, or an instruction-
	// free block whose in-edges are all payload-side.
	for b, r := range sep.Runs {
		if r.Hi == len(b.Instrs) {
			sep.PayloadSide[b] = true
		}
	}
	changed := true
	for changed {
		changed = false
		for b := range loop.Blocks {
			if len(b.Instrs) > 0 || sep.PayloadSide[b] {
				continue
			}
			anyPayload, anyIter := false, false
			for _, p := range g.Preds[b] {
				if !inLoop(p) {
					anyIter = true
					continue
				}
				if sep.PayloadSide[p] {
					// Edge from payload-side block: payload edge — unless
					// this target is already the continuation of a mixed
					// block, handled below.
					anyPayload = true
				} else {
					anyIter = true
				}
			}
			if anyPayload && !anyIter {
				sep.PayloadSide[b] = true
				changed = true
			}
		}
	}

	// --- 6. Entry points. ---
	type point struct {
		b   *ir.Block
		idx int
	}
	entries := map[point]bool{}
	for b, r := range sep.Runs {
		if r.Lo > 0 {
			entries[point{b, r.Lo}] = true // in-block fallthrough from iterator prefix
		} else {
			for _, p := range g.Preds[b] {
				if !inLoop(p) || !sep.PayloadSide[p] {
					entries[point{b, 0}] = true
				}
			}
		}
	}
	// Payload-side empty blocks entered from iterator side are also entries.
	for b := range sep.PayloadSide {
		if _, hasRun := sep.Runs[b]; hasRun {
			continue
		}
		for _, p := range g.Preds[b] {
			if inLoop(p) && !sep.PayloadSide[p] {
				entries[point{b, 0}] = true
			}
		}
	}
	if len(entries) != 1 {
		return fail(sep, "payload region has %d entry points, need exactly 1", len(entries))
	}
	for e := range entries {
		sep.B0, sep.P0 = e.b, e.idx
	}

	// --- 7. Continuation points. ---
	conts := map[ContPoint]bool{}
	for b, r := range sep.Runs {
		if r.Hi < len(b.Instrs) {
			conts[ContPoint{Block: b, Index: r.Hi}] = true
		}
	}
	for b := range sep.PayloadSide {
		for _, s := range g.Succs[b] {
			if !inLoop(s) {
				return fail(sep, "payload block %s exits the loop", b.Name)
			}
			if sep.PayloadSide[s] {
				continue // region-internal edge
			}
			if s == sep.B0 && sep.P0 == 0 {
				continue // region-internal back edge (payload-internal loop)
			}
			if s == sep.B0 && sep.P0 > 0 {
				return fail(sep, "payload re-enters iterator prefix of %s", sep.B0.Name)
			}
			if r, ok := sep.Runs[s]; ok && r.Lo == 0 {
				// Edge into the start of a mixed block's payload run (for
				// example an inner-loop exit falling into the store that
				// precedes the iterator advance): region-internal.
				continue
			}
			conts[ContPoint{Block: s, Index: 0}] = true
		}
	}
	if len(conts) != 1 {
		return fail(sep, "payload region has %d continuation points, need exactly 1", len(conts))
	}
	for c := range conts {
		sep.Cont = c
	}

	// --- 8. Iterator instructions must survive linearization. ---
	// Allowed homes: blocks with no payload run that are iterator-side,
	// B0's prefix, and the continuation block's suffix.
	for in := range sep.IterInstrs {
		p := where[in]
		if r, mixed := sep.Runs[p.b]; mixed {
			okPrefix := p.b == sep.B0 && p.idx < sep.P0
			okSuffix := p.b == sep.Cont.Block && p.idx >= sep.Cont.Index
			// A block can be both B0 and the continuation (single-block
			// payload run in the middle).
			if !okPrefix && !okSuffix {
				_ = r
				return fail(sep, "iterator instruction %q stranded inside payload region (block %s)", in, p.b.Name)
			}
		} else if sep.PayloadSide[p.b] {
			return fail(sep, "iterator instruction %q in payload-side block %s", in, p.b.Name)
		}
	}

	// --- 9. Memory separability: payload reads must not alias iterator
	// writes (the driver replays payload after the whole iterator ran).
	iterWrites := pointer.RegionSet{}
	for in := range sep.IterInstrs {
		iterWrites.AddAll(writeRegions[in])
	}
	if len(iterWrites) > 0 {
		for _, in := range allInstrs {
			if sep.IterInstrs[in] {
				continue
			}
			if rr := readRegions[in]; rr.Intersects(iterWrites) {
				return fail(sep, "payload instruction %q reads memory the iterator mutates", in)
			}
		}
	}

	// --- 10. Local classification. ---
	iterDefs := dataflow.LocalSet{}
	for in := range sep.IterInstrs {
		if d := in.Def(); d != nil {
			iterDefs[d] = true
		}
	}
	iterUses := dataflow.LocalSet{}
	for in := range sep.IterInstrs {
		for _, u := range in.Uses() {
			if u.Local != nil {
				iterUses[u.Local] = true
			}
		}
	}
	payloadUses := dataflow.LocalSet{}
	payloadDefs := dataflow.LocalSet{}
	sep.PayloadDefSet = payloadDefs
	for _, in := range allInstrs {
		if sep.IterInstrs[in] {
			continue
		}
		for _, u := range in.Uses() {
			if u.Local != nil {
				payloadUses[u.Local] = true
			}
		}
		if d := in.Def(); d != nil {
			payloadDefs[d] = true
		}
	}
	// Conditions of payload-side terminators count as payload uses.
	for b := range sep.PayloadSide {
		if t, ok := b.Term.(*ir.If); ok && t.Cond.Local != nil {
			payloadUses[t.Cond.Local] = true
		}
	}
	effects := lv.AnalyzeLoop(loop)
	liveHdr := lv.LiveIn[loop.Header]
	seenIter := map[*ir.Local]bool{}
	seenEnv := map[*ir.Local]bool{}
	sep.Internal = dataflow.LocalSet{}
	for _, l := range sortedLocals(payloadUses, payloadDefs) {
		switch {
		case iterDefs[l]:
			if payloadDefs[l] {
				return fail(sep, "local %q defined by both iterator and payload", l.Name)
			}
			if payloadUses[l] && !seenIter[l] {
				seenIter[l] = true
				sep.IterLocals = append(sep.IterLocals, l)
			}
		case payloadDefs[l] && !liveHdr[l] && !effects.LiveAfter[l] && !iterUses[l]:
			sep.Internal[l] = true
		default:
			if !seenEnv[l] {
				seenEnv[l] = true
				sep.EnvLocals = append(sep.EnvLocals, l)
			}
		}
	}

	sep.OK = true
	return sep
}

// orderedBlocks returns the loop blocks in RPO for determinism.
func orderedBlocks(g *cfg.Graph, loop *cfg.Loop) []*ir.Block {
	var out []*ir.Block
	for _, b := range g.RPO {
		if loop.Blocks[b] {
			out = append(out, b)
		}
	}
	return out
}

func sortedLocals(sets ...dataflow.LocalSet) []*ir.Local {
	all := dataflow.LocalSet{}
	for _, s := range sets {
		all.AddAll(s)
	}
	return all.Sorted()
}
