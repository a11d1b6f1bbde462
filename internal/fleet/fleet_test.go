// Integration tests for the sharded fleet: in-process workers on loopback
// listeners, a real coordinator, and the peer cache protocol. These live in
// an external test package because they import the server, which itself
// imports fleet.
package fleet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dca/internal/cache"
	"dca/internal/core"
	"dca/internal/fleet"
	"dca/internal/irbuild"
	"dca/internal/obs"
	"dca/internal/server"
)

// fleetSrc has four loops in one function, enough for a 3-node ring to
// split the program across workers.
const fleetSrc = `
func main() {
	var a []int = new [16]int;
	for (var i int = 0; i < 16; i++) {
		a[i] = i * 3;
	}
	var s int = 0;
	for (var i int = 0; i < 16; i++) {
		s = s + a[i];
	}
	var p int = 1;
	for (var i int = 1; i < 8; i++) {
		p = p * 2;
	}
	var b []int = new [16]int;
	for (var i int = 0; i < 16; i++) {
		b[i] = s + i;
	}
	print(s);
	print(p);
	print(b[3]);
}`

// testFleet boots n worker servers on loopback listeners with the peer
// cache wired, plus a coordinator over all of them.
type testFleet struct {
	workers []*server.Server
	cancels []context.CancelFunc
	urls    []string
	coord   *fleet.Coordinator
	cm      *fleet.Metrics
}

func newTestFleet(t *testing.T, n int) *testFleet {
	t.Helper()
	f := &testFleet{}
	t.Cleanup(f.stop)
	listeners := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		f.urls = append(f.urls, "http://"+ln.Addr().String())
	}
	for i := 0; i < n; i++ {
		c, err := cache.Open("", 0, core.CacheRecordVersion)
		if err != nil {
			t.Fatal(err)
		}
		srv := server.New(server.Config{
			Workers:   2,
			Cache:     c,
			PeerNodes: f.urls,
			PeerSelf:  f.urls[i],
		})
		ctx, cancel := context.WithCancel(context.Background())
		f.workers = append(f.workers, srv)
		f.cancels = append(f.cancels, cancel)
		ln := listeners[i]
		go srv.Serve(ctx, ln)
	}
	reg := obs.NewRegistry()
	f.coord = fleet.NewCoordinator(fleet.CoordinatorConfig{Nodes: f.urls})
	f.cm = fleet.NewMetrics(reg, f.coord.Ring())
	f.coord.SetMetrics(f.cm)
	return f
}

func (f *testFleet) kill(i int) {
	if f.cancels[i] != nil {
		f.cancels[i]()
		f.cancels[i] = nil
	}
}

func (f *testFleet) stop() {
	for i := range f.cancels {
		f.kill(i)
	}
}

// analyze runs fleetSrc through the coordinator and renders the verdict
// table: every deterministic per-loop field, nothing timing-dependent.
func (f *testFleet) analyze(t *testing.T) (*core.ReportJSON, string) {
	t.Helper()
	prog, err := irbuild.Compile("fleet.mc", fleetSrc)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.coord.Analyze(context.Background(), prog, "fleet.mc", fleetSrc, fleet.Knobs{Schedules: 1}, nil)
	if err != nil {
		t.Fatalf("coordinator analyze: %v", err)
	}
	return rep, renderTable(rep)
}

func renderTable(rep *core.ReportJSON) string {
	var b strings.Builder
	for _, l := range rep.Loops {
		fmt.Fprintf(&b, "%s #%d %s %s\n", l.Fn, l.Index, l.Verdict, l.Reason)
	}
	return b.String()
}

// TestFleetIdentity: a 3-node fleet renders the byte-identical verdict
// table a single node does, and the loops really were sharded.
func TestFleetIdentity(t *testing.T) {
	single := newTestFleet(t, 1)
	_, want := single.analyze(t)
	if want == "" {
		t.Fatal("reference table is empty")
	}

	// Routing hashes worker URLs, so whether the ring splits the program's
	// loops at all depends on the ports the OS hands out. Retry fleets until
	// it does, as the hedging and rejoin tests do, so the sharding check
	// below tests the coordinator rather than the port draw.
	prog, err := irbuild.Compile("fleet.mc", fleetSrc)
	if err != nil {
		t.Fatal(err)
	}
	route := routerFor(prog)
	var f *testFleet
	for try := 0; f == nil; try++ {
		if try >= 50 {
			t.Fatal("no 3-node fleet splits the ring after 50 tries")
		}
		f = newTestFleet(t, 3)
		owners := map[string]bool{}
		for _, ref := range fleet.EnumerateLoops(prog) {
			owners[f.coord.Ring().Owner(route(ref), nil)] = true
		}
		if len(owners) < 2 {
			f.stop()
			f = nil
		}
	}
	rep, got := f.analyze(t)
	if got != want {
		t.Errorf("3-node table diverged from single node:\n--- single ---\n%s--- fleet ---\n%s", want, got)
	}
	if len(rep.Loops) < 4 {
		t.Fatalf("expected at least 4 loops, got %d", len(rep.Loops))
	}
	dispatched := 0
	for _, node := range f.urls {
		if f.cm.Dispatches.Value(node) > 0 {
			dispatched++
		}
	}
	if dispatched < 2 {
		t.Errorf("only %d nodes received a batch; program was not sharded", dispatched)
	}
}

// TestFleetDeadWorkerRedispatch: with one worker dead, its shard
// re-dispatches to ring successors and the merged table stays identical.
func TestFleetDeadWorkerRedispatch(t *testing.T) {
	single := newTestFleet(t, 1)
	_, want := single.analyze(t)

	f := newTestFleet(t, 3)
	f.kill(2)
	time.Sleep(10 * time.Millisecond) // let the listener close
	_, got := f.analyze(t)
	if got != want {
		t.Errorf("table with a dead worker diverged:\n--- single ---\n%s--- fleet ---\n%s", want, got)
	}
}

// TestFleetKillMidRun: a worker dies while the suite is in flight — the
// OnLoop callback kills one node after the first verdict lands — and the
// coordinator still merges the identical table via at-least-once
// re-dispatch.
func TestFleetKillMidRun(t *testing.T) {
	single := newTestFleet(t, 1)
	_, want := single.analyze(t)

	f := newTestFleet(t, 3)
	prog, err := irbuild.Compile("fleet.mc", fleetSrc)
	if err != nil {
		t.Fatal(err)
	}
	killed := false
	onLoop := func(core.LoopJSON) {
		if !killed {
			killed = true
			f.kill(1)
		}
	}
	rep, err := f.coord.Analyze(context.Background(), prog, "fleet.mc", fleetSrc, fleet.Knobs{Schedules: 1}, onLoop)
	if err != nil {
		t.Fatalf("coordinator analyze with mid-run kill: %v", err)
	}
	if got := renderTable(rep); got != want {
		t.Errorf("table after mid-run kill diverged:\n--- single ---\n%s--- fleet ---\n%s", want, got)
	}
	if !killed {
		t.Fatal("OnLoop never fired; kill path untested")
	}
}

// TestFleetPeerCacheCompounding: after one coordinator pass populated each
// worker's shard, re-analyzing the whole program directly against any
// single worker is served entirely from cache — its own shard locally, the
// rest via peer consults — with zero replays.
func TestFleetPeerCacheCompounding(t *testing.T) {
	f := newTestFleet(t, 3)
	rep, _ := f.analyze(t)
	total := len(rep.Loops)

	for i, url := range f.urls {
		body, _ := json.Marshal(map[string]any{
			"filename": "fleet.mc", "source": fleetSrc, "schedules": 1,
		})
		resp, err := http.Post(url+"/analyze", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		var ar server.AnalyzeResponse
		if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
			t.Fatalf("worker %d: decode: %v", i, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || ar.Report == nil {
			t.Fatalf("worker %d: status %d, report %v", i, resp.StatusCode, ar.Report)
		}
		if ar.Report.CachedLoops != total {
			t.Errorf("worker %d: %d/%d loops cached; peer cache did not compound", i, ar.Report.CachedLoops, total)
		}
		if ar.Report.Replays != 0 {
			t.Errorf("worker %d: %d replays on a fully cached program", i, ar.Report.Replays)
		}
	}
	var hits uint64
	for _, w := range f.workers {
		if m := w.FleetMetrics(); m != nil {
			hits += m.PeerHits.Value()
		}
	}
	if hits == 0 {
		t.Error("no peer hits recorded; workers answered from local caches only")
	}
}

// TestPeerCacheCorruption: a peer serving garbage — invalid JSON, oversized
// bodies, or 500s — degrades to a local miss, never an error, and the
// corruption is counted.
func TestPeerCacheCorruption(t *testing.T) {
	responses := map[string]func(w http.ResponseWriter){
		"notjson": func(w http.ResponseWriter) { fmt.Fprint(w, "{{{ not json") },
		"huge": func(w http.ResponseWriter) {
			w.Write(bytes.Repeat([]byte("a"), fleet.MaxPeerRecord+1))
		},
		"boom": func(w http.ResponseWriter) { w.WriteHeader(http.StatusInternalServerError) },
	}
	evil := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parts := strings.Split(r.URL.Path, "/")
		key := parts[len(parts)-1]
		for tag, h := range responses {
			if strings.HasPrefix(key, keyFor(tag)) {
				h(w)
				return
			}
		}
		w.WriteHeader(http.StatusNotFound)
	}))
	defer evil.Close()

	local, err := cache.Open("", 0, core.CacheRecordVersion)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	const self = "http://self.invalid"
	ring := fleet.NewRing([]string{self, evil.URL})
	m := fleet.NewMetrics(reg, ring)
	pc := fleet.NewPeerCache(fleet.PeerConfig{Local: local, Ring: ring, Self: self, Metrics: m})

	for tag := range responses {
		key := ownedKey(t, ring, evil.URL, tag)
		if val, ok := pc.Get(key); ok {
			t.Errorf("%s: corrupt peer record surfaced as a hit: %q", tag, val)
		}
	}
	if m.PeerErrors.Value() == 0 {
		t.Error("no peer errors counted for corrupt responses")
	}

	// A clean 404 from the peer is a miss, not an error.
	before := m.PeerErrors.Value()
	if _, ok := pc.Get(ownedKey(t, ring, evil.URL, "absent")); ok {
		t.Error("404 from peer surfaced as a hit")
	}
	if m.PeerErrors.Value() != before {
		t.Error("404 from peer counted as an error, want miss")
	}

	// Put never fails even when the write-through target is down: local
	// insert still happens.
	pc.Put(ownedKey(t, ring, evil.URL, "boom"), []byte(`{"v":1}`))
	if _, ok := local.Get(ownedKey(t, ring, evil.URL, "boom")); !ok {
		t.Error("write-through failure dropped the local insert")
	}
}

// keyFor derives a valid hex cache-key prefix from a tag so the evil peer
// can tell which behavior a request wants.
func keyFor(tag string) string {
	return fmt.Sprintf("%x", tag)
}

// ownedKey finds a valid cache key with the tag's hex prefix that the ring
// routes to the given owner.
func ownedKey(t *testing.T, ring *fleet.Ring, owner, tag string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		key := fmt.Sprintf("%s%04x", keyFor(tag), i)
		if ring.Owner(key, nil) == owner {
			return key
		}
	}
	t.Fatalf("no key with prefix %q routes to %s", tag, owner)
	return ""
}
