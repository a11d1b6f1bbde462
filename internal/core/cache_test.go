package core_test

import (
	"sync"
	"testing"

	"dca/internal/cache"
	"dca/internal/core"
	"dca/internal/irbuild"
	"dca/internal/sandbox"
)

const cacheSrc = `
struct Node { val int; next *Node; }
func main() {
	var head *Node = nil;
	for (var i int = 0; i < 16; i++) {
		var n *Node = new Node;
		n.val = i;
		n.next = head;
		head = n;
	}
	var sum int = 0;
	for (var p *Node = head; p != nil; p = p.next) { sum += p.val; }
	print(sum);
}`

func analyzeCached(t *testing.T, src string, opt core.Options) *core.Report {
	t.Helper()
	prog, err := irbuild.Compile("test.mc", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	rep, err := core.Analyze(prog, opt)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return rep
}

// TestCacheIdentity: a warm-cache run reproduces the cold run's verdict
// table byte-for-byte, serves every dynamic-stage loop from the cache, and
// performs zero replays.
func TestCacheIdentity(t *testing.T) {
	c, err := cache.Open("", 0, core.CacheRecordVersion)
	if err != nil {
		t.Fatal(err)
	}
	opt := core.Options{Cache: c}

	cold := analyzeCached(t, cacheSrc, opt)
	if cold.Replays() == 0 {
		t.Fatal("cold run performed no replays")
	}
	if cold.CachedLoops() != 0 {
		t.Fatalf("cold run served %d loops from an empty cache", cold.CachedLoops())
	}

	warm := analyzeCached(t, cacheSrc, opt)
	if cold.String() != warm.String() {
		t.Fatalf("warm verdict table diverged:\n--- cold ---\n%s--- warm ---\n%s", cold, warm)
	}
	if warm.Replays() != 0 {
		t.Fatalf("warm run performed %d replays, want 0", warm.Replays())
	}
	if len(warm.Loops) != len(cold.Loops) {
		t.Fatalf("loop counts differ: %d vs %d", len(warm.Loops), len(cold.Loops))
	}
	for i, w := range warm.Loops {
		cd := cold.Loops[i]
		if cd.Provenance != core.ProvenanceComputed {
			t.Errorf("cold %s: provenance %q", cd.ID, cd.Provenance)
		}
		if w.Provenance != core.ProvenanceCached {
			t.Errorf("warm %s: provenance %q, want cached", w.ID, w.Provenance)
		}
		// Every dynamic-stage field the cache stores must round-trip.
		if w.Verdict != cd.Verdict || w.Reason != cd.Reason ||
			w.Invocations != cd.Invocations || w.Iterations != cd.Iterations ||
			w.SchedulesTested != cd.SchedulesTested || w.Retries != cd.Retries ||
			w.TrapKind != cd.TrapKind {
			t.Errorf("warm %s differs from cold:\n  cold: %+v\n  warm: %+v", w.ID, *cd, *w)
		}
	}
}

// TestCacheInvalidation: a payload change misses the cache and recomputes.
func TestCacheInvalidation(t *testing.T) {
	c, err := cache.Open("", 0, core.CacheRecordVersion)
	if err != nil {
		t.Fatal(err)
	}
	opt := core.Options{Cache: c}
	analyzeCached(t, cacheSrc, opt)

	changed := analyzeCached(t, `
struct Node { val int; next *Node; }
func main() {
	var head *Node = nil;
	for (var i int = 0; i < 16; i++) {
		var n *Node = new Node;
		n.val = i * 2;
		n.next = head;
		head = n;
	}
	var sum int = 0;
	for (var p *Node = head; p != nil; p = p.next) { sum += p.val; }
	print(sum);
}`, opt)
	if changed.CachedLoops() != 0 {
		t.Fatalf("changed program served %d loops from the old program's cache", changed.CachedLoops())
	}
}

// countingCache wraps the verdict-cache interface with counters and an
// optional poisoned read path.
type countingCache struct {
	mu     sync.Mutex
	store  map[string][]byte
	poison []byte // when non-nil, every Get returns this
	gets   int
	puts   int
	hits   int
}

func newCountingCache() *countingCache { return &countingCache{store: map[string][]byte{}} }

func (c *countingCache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gets++
	if c.poison != nil {
		c.hits++
		return c.poison, true
	}
	v, ok := c.store[key]
	if ok {
		c.hits++
	}
	return v, ok
}

func (c *countingCache) Put(key string, val []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.puts++
	c.store[key] = val
}

// TestUndecodableRecordRecomputes: a cache serving garbage bytes must
// degrade to a computed verdict, never panic or misreport. Verdict 7 is
// Cancelled, which no writer stores: such a record is forged.
func TestUndecodableRecordRecomputes(t *testing.T) {
	clean := analyzeCached(t, cacheSrc, core.Options{})

	for _, poison := range [][]byte{
		[]byte("not json"), []byte(`{"verdict": 99}`), []byte(`{"verdict": -1}`), []byte(`{"verdict": 7}`),
	} {
		pc := newCountingCache()
		pc.poison = poison
		rep := analyzeCached(t, cacheSrc, core.Options{Cache: pc})
		if rep.String() != clean.String() {
			t.Fatalf("poisoned cache (%q) changed verdicts:\n%s\nvs\n%s", poison, rep, clean)
		}
		if rep.CachedLoops() != 0 {
			t.Fatalf("poisoned record (%q) accepted as cached", poison)
		}
	}
}

// TestInjectionBypassesCache: armed fault injection must neither read nor
// write the cache — injected traps are harness behaviour.
func TestInjectionBypassesCache(t *testing.T) {
	cc := newCountingCache()
	opt := core.Options{
		Cache:  cc,
		Inject: sandbox.Inject{Kind: sandbox.Fault, AtStep: 50},
	}
	analyzeCached(t, cacheSrc, opt)
	if cc.gets != 0 || cc.puts != 0 {
		t.Fatalf("injection touched the cache: %d gets, %d puts", cc.gets, cc.puts)
	}
}
