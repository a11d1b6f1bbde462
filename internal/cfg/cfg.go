// Package cfg computes control-flow facts over IR functions: predecessor
// and successor maps, reverse postorder, dominator trees (Cooper-Harvey-
// Kennedy) and natural loops with their nesting forest. DCA analyzes loops
// found here.
package cfg

import (
	"fmt"
	"sort"
	"strings"

	"dca/internal/ir"
)

// Graph holds per-function control-flow structure.
type Graph struct {
	Fn     *ir.Func
	Preds  map[*ir.Block][]*ir.Block
	Succs  map[*ir.Block][]*ir.Block
	RPO    []*ir.Block       // reverse postorder over reachable blocks
	rpoNum map[*ir.Block]int // position in RPO
	idom   map[*ir.Block]*ir.Block
}

// New computes the CFG for fn.
func New(fn *ir.Func) *Graph {
	g := &Graph{
		Fn:    fn,
		Preds: map[*ir.Block][]*ir.Block{},
		Succs: map[*ir.Block][]*ir.Block{},
	}
	for _, b := range fn.Blocks {
		if b.Term == nil {
			continue
		}
		for _, s := range b.Term.Succs() {
			g.Succs[b] = append(g.Succs[b], s)
			g.Preds[s] = append(g.Preds[s], b)
		}
	}
	g.computeRPO()
	g.computeDominators()
	return g
}

func (g *Graph) computeRPO() {
	seen := map[*ir.Block]bool{}
	var post []*ir.Block
	var dfs func(b *ir.Block)
	dfs = func(b *ir.Block) {
		seen[b] = true
		for _, s := range g.Succs[b] {
			if !seen[s] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(g.Fn.Entry())
	g.RPO = make([]*ir.Block, len(post))
	g.rpoNum = make(map[*ir.Block]int, len(post))
	for i := range post {
		b := post[len(post)-1-i]
		g.RPO[i] = b
		g.rpoNum[b] = i
	}
}

// Reachable reports whether b is reachable from the entry.
func (g *Graph) Reachable(b *ir.Block) bool {
	_, ok := g.rpoNum[b]
	return ok
}

// computeDominators runs the Cooper-Harvey-Kennedy iterative algorithm.
func (g *Graph) computeDominators() {
	g.idom = map[*ir.Block]*ir.Block{}
	entry := g.Fn.Entry()
	g.idom[entry] = entry
	changed := true
	for changed {
		changed = false
		for _, b := range g.RPO {
			if b == entry {
				continue
			}
			var newIdom *ir.Block
			for _, p := range g.Preds[b] {
				if _, ok := g.idom[p]; !ok {
					continue // not yet processed / unreachable
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = g.intersect(p, newIdom)
				}
			}
			if newIdom == nil {
				continue
			}
			if g.idom[b] != newIdom {
				g.idom[b] = newIdom
				changed = true
			}
		}
	}
}

func (g *Graph) intersect(a, b *ir.Block) *ir.Block {
	for a != b {
		for g.rpoNum[a] > g.rpoNum[b] {
			a = g.idom[a]
		}
		for g.rpoNum[b] > g.rpoNum[a] {
			b = g.idom[b]
		}
	}
	return a
}

// Idom returns the immediate dominator of b (entry's idom is itself).
func (g *Graph) Idom(b *ir.Block) *ir.Block { return g.idom[b] }

// Dominates reports whether a dominates b (reflexive).
func (g *Graph) Dominates(a, b *ir.Block) bool {
	if !g.Reachable(a) || !g.Reachable(b) {
		return false
	}
	entry := g.Fn.Entry()
	for {
		if a == b {
			return true
		}
		if b == entry {
			return false
		}
		nb := g.idom[b]
		if nb == b || nb == nil {
			return false
		}
		b = nb
	}
}

// Loop is a natural loop: Header plus the set of Blocks (including the
// header). Exits are the blocks outside the loop that loop blocks branch to.
type Loop struct {
	Fn       *ir.Func
	Header   *ir.Block
	Blocks   map[*ir.Block]bool
	Latches  []*ir.Block // in-loop predecessors of the header
	Exits    []*ir.Block // out-of-loop successor blocks
	ExitSrcs []*ir.Block // in-loop blocks with an edge out
	Parent   *Loop
	Children []*Loop
	Depth    int // 1 = outermost
	Index    int // stable index within the function (header RPO order)
}

// Onto returns the loop at the same place in fn, a Func.Clone of l.Fn that
// is not yet edited: each block maps to fn's block at its position
// (ir.Func.BlockFor). The copy carries the header, blocks, latches, exits,
// exit sources, depth and index. Parent and Children stay nil: the mapped
// loop is the instrumented clone's, and no reader of it walks the forest.
func (l *Loop) Onto(fn *ir.Func) *Loop {
	at := func(b *ir.Block) *ir.Block { return fn.BlockFor(l.Fn, b) }
	all := func(bs []*ir.Block) []*ir.Block {
		out := make([]*ir.Block, len(bs))
		for i, b := range bs {
			out[i] = at(b)
		}
		return out
	}
	m := &Loop{
		Fn:       fn,
		Header:   at(l.Header),
		Blocks:   make(map[*ir.Block]bool, len(l.Blocks)),
		Latches:  all(l.Latches),
		Exits:    all(l.Exits),
		ExitSrcs: all(l.ExitSrcs),
		Depth:    l.Depth,
		Index:    l.Index,
	}
	for b := range l.Blocks {
		m.Blocks[at(b)] = true
	}
	return m
}

// Contains reports whether the block belongs to the loop.
func (l *Loop) Contains(b *ir.Block) bool { return l.Blocks[b] }

// String renders a compact loop description.
func (l *Loop) String() string {
	names := make([]string, 0, len(l.Blocks))
	for b := range l.Blocks {
		names = append(names, b.Name)
	}
	sort.Strings(names)
	return fmt.Sprintf("loop@%s{%s}", l.Header.Name, strings.Join(names, ","))
}

// ID returns a stable identifier usable in reports: function name, loop
// index and source position when available.
func (l *Loop) ID() string {
	pos := l.Header.Pos
	if pos.IsValid() {
		return fmt.Sprintf("%s/L%d@%s", l.Fn.Name, l.Index, pos)
	}
	return fmt.Sprintf("%s/L%d", l.Fn.Name, l.Index)
}

// FindLoops detects all natural loops via back edges (edge a->h where h
// dominates a) and builds the nesting forest. Loops sharing a header are
// merged, as in LLVM's LoopInfo.
func (g *Graph) FindLoops() []*Loop {
	byHeader := map[*ir.Block]*Loop{}
	var headers []*ir.Block
	for _, b := range g.RPO {
		for _, s := range g.Succs[b] {
			if g.Dominates(s, b) {
				// back edge b -> s
				l, ok := byHeader[s]
				if !ok {
					l = &Loop{Fn: g.Fn, Header: s, Blocks: map[*ir.Block]bool{s: true}}
					byHeader[s] = l
					headers = append(headers, s)
				}
				l.Latches = append(l.Latches, b)
				g.collectLoopBody(l, b)
			}
		}
	}
	loops := make([]*Loop, 0, len(headers))
	for _, h := range headers {
		loops = append(loops, byHeader[h])
	}
	// Stable order by header RPO.
	sort.SliceStable(loops, func(i, j int) bool {
		return g.rpoNum[loops[i].Header] < g.rpoNum[loops[j].Header]
	})
	for i, l := range loops {
		l.Index = i
	}
	// Exits.
	for _, l := range loops {
		seenExit := map[*ir.Block]bool{}
		seenSrc := map[*ir.Block]bool{}
		for b := range l.Blocks {
			for _, s := range g.Succs[b] {
				if !l.Blocks[s] {
					if !seenExit[s] {
						seenExit[s] = true
						l.Exits = append(l.Exits, s)
					}
					if !seenSrc[b] {
						seenSrc[b] = true
						l.ExitSrcs = append(l.ExitSrcs, b)
					}
				}
			}
		}
		sort.Slice(l.Exits, func(i, j int) bool { return g.rpoNum[l.Exits[i]] < g.rpoNum[l.Exits[j]] })
		sort.Slice(l.ExitSrcs, func(i, j int) bool { return g.rpoNum[l.ExitSrcs[i]] < g.rpoNum[l.ExitSrcs[j]] })
	}
	// Nesting: loop A is a child of the smallest loop strictly containing
	// its header (and not equal to it).
	for _, l := range loops {
		var best *Loop
		for _, m := range loops {
			if m == l || !m.Blocks[l.Header] {
				continue
			}
			if best == nil || len(m.Blocks) < len(best.Blocks) {
				best = m
			}
		}
		if best != nil {
			l.Parent = best
			best.Children = append(best.Children, l)
		}
	}
	for _, l := range loops {
		d := 1
		for p := l.Parent; p != nil; p = p.Parent {
			d++
		}
		l.Depth = d
	}
	return loops
}

// collectLoopBody walks predecessors from a latch back to the header,
// adding every visited block to the loop.
func (g *Graph) collectLoopBody(l *Loop, latch *ir.Block) {
	if l.Blocks[latch] {
		return
	}
	stack := []*ir.Block{latch}
	l.Blocks[latch] = true
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range g.Preds[b] {
			if !l.Blocks[p] && g.Reachable(p) {
				l.Blocks[p] = true
				stack = append(stack, p)
			}
		}
	}
}

// LoopsOf is a convenience: CFG + loop detection in one call.
func LoopsOf(fn *ir.Func) (*Graph, []*Loop) {
	g := New(fn)
	return g, g.FindLoops()
}

// forestKey keys one function's graph and loop forest in ir.Program.Memo.
type forestKey struct{ fn *ir.Func }

type forest struct {
	g     *Graph
	loops []*Loop
}

// Forest returns fn's graph and loops as LoopsOf builds them, once per
// function of prog, shared through prog.Memo by every reader of the
// program (the affine environment builds its analyses on this graph and
// takes its loops from it); both are read-only. fn must be a function of
// prog that is no longer rewritten: the instrumenter, which rewrites a
// clone, maps the original's loop onto it (Loop.Onto).
func Forest(prog *ir.Program, fn *ir.Func) (*Graph, []*Loop) {
	f := prog.Memo(forestKey{fn}, func() any {
		g, loops := LoopsOf(fn)
		return &forest{g, loops}
	}).(*forest)
	return f.g, f.loops
}

// Loops returns fn's loops from Forest.
func Loops(prog *ir.Program, fn *ir.Func) []*Loop {
	_, loops := Forest(prog, fn)
	return loops
}
