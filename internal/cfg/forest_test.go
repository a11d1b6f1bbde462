package cfg_test

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"dca/internal/cfg"
	"dca/internal/fuzzgen"
	"dca/internal/ir"
	"dca/internal/irbuild"
	"dca/internal/workloads/npb"
)

// describeForest renders what readers take from a loop forest: each loop's
// index, header, depth, parent and block set, by name.
func describeForest(loops []*cfg.Loop) string {
	var b strings.Builder
	for _, l := range loops {
		names := make([]string, 0, len(l.Blocks))
		for blk := range l.Blocks {
			names = append(names, blk.Name)
		}
		sort.Strings(names)
		parent := -1
		if l.Parent != nil {
			parent = l.Parent.Index
		}
		fmt.Fprintf(&b, "L%d header=%s depth=%d parent=%d blocks=[%s]\n",
			l.Index, l.Header.Name, l.Depth, parent, strings.Join(names, " "))
	}
	return b.String()
}

// forestCorpus compiles the ten NPB proxies and fuzzgen seeds 1-300.
func forestCorpus(t *testing.T) map[string]*ir.Program {
	t.Helper()
	progs := map[string]*ir.Program{}
	for _, spec := range npb.Specs() {
		prog, err := spec.Compile()
		if err != nil {
			t.Fatalf("npb/%s: %v", spec.Name, err)
		}
		progs["npb/"+spec.Name] = prog
	}
	for seed := int64(1); seed <= 300; seed++ {
		prog, err := irbuild.Compile("fuzz.mc", fuzzgen.New(seed).Render())
		if err != nil {
			t.Fatalf("fuzz/seed-%d: %v", seed, err)
		}
		progs[fmt.Sprintf("fuzz/seed-%d", seed)] = prog
	}
	return progs
}

// TestLoopsMatchesLoopsOf: the memoized forest is the one LoopsOf finds
// afresh, and every later reader gets the same loops.
func TestLoopsMatchesLoopsOf(t *testing.T) {
	n := 0
	for name, prog := range forestCorpus(t) {
		for _, fn := range prog.Funcs {
			got := cfg.Loops(prog, fn)
			_, want := cfg.LoopsOf(fn)
			if g, w := describeForest(got), describeForest(want); g != w {
				t.Errorf("%s %s: memoized forest\n%s\nfresh forest\n%s", name, fn.Name, g, w)
			}
			if again := cfg.Loops(prog, fn); len(got) > 0 && &again[0] != &got[0] {
				t.Errorf("%s %s: a second reader got a different forest", name, fn.Name)
			}
			n += len(got)
		}
	}
	if n < 1397 {
		t.Errorf("corpus has %d loops, want at least the 1397 of the NPB proxies", n)
	}
}

// TestLoopsConcurrentFirstReaders: readers racing to build a program's
// forests all get the one that was stored.
func TestLoopsConcurrentFirstReaders(t *testing.T) {
	prog, err := npb.SpecByName("BT").Compile()
	if err != nil {
		t.Fatal(err)
	}
	const readers = 4
	got := make([][][]*cfg.Loop, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for _, fn := range prog.Funcs {
				loops := cfg.Loops(prog, fn)
				_ = describeForest(loops)
				got[r] = append(got[r], loops)
			}
		}(r)
	}
	wg.Wait()
	for r := 1; r < readers; r++ {
		for i := range prog.Funcs {
			if len(got[r][i]) != len(got[0][i]) || len(got[0][i]) > 0 && &got[r][i][0] != &got[0][i][0] {
				t.Fatalf("reader %d got a different forest for %s", r, prog.Funcs[i].Name)
			}
		}
	}
}
