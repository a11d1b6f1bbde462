package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"dca/internal/obs"
)

// killResumeSrc has two loops the prover decides at once, then loops whose
// golden run and replays each execute the whole program, including the
// slow nest. At -j 1 a SIGKILL landing after the first two cache entries
// appear is therefore guaranteed to interrupt the suite mid-way.
const killResumeSrc = `
func fill(a []int, n int) {
	for (var i int = 0; i < n; i++) { a[i] = i * 7; }
}
func main() {
	var a []int = new [64]int;
	fill(a, 64);
	var s int = 0;
	for (var i int = 0; i < 64; i++) { s = s + a[i]; }
	var p int = 1;
	for (var i int = 1; i < 32; i++) { p = (p * i) % 9973; }
	var b []int = new [64]int;
	for (var i int = 0; i < 64; i++) { b[i] = a[63 - i]; }
	var slow int = 0;
	for (var i int = 0; i < 700; i++) {
		for (var j int = 0; j < 700; j++) { slow = slow + (i ^ j); }
	}
	print(s); print(p); print(b[0]); print(slow);
}`

// TestKillResumeHelper is not a test: it is the child process body for
// TestKillResume, re-executed from the test binary. It runs cmdAnalyze with
// the argument list from the environment and exits before the
// testing framework can print anything to stdout (the parent compares the
// report bytes on stdout).
func TestKillResumeHelper(t *testing.T) {
	raw := os.Getenv("DCA_KILL_RESUME_ARGS")
	if raw == "" {
		t.Skip("helper process body; run via TestKillResume")
	}
	if err := cmdAnalyze(strings.Split(raw, "\x1f")); err != nil {
		fmt.Fprintln(os.Stderr, "helper:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

func runAnalyzeChild(t *testing.T, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=TestKillResumeHelper")
	cmd.Env = append(os.Environ(), "DCA_KILL_RESUME_ARGS="+strings.Join(args, "\x1f"))
	return cmd
}

// countEntries returns how many cache entries sit under their final names
// in dir. A writer's temp file (".tmp-*") is not an entry until its rename.
func countEntries(dir string) int {
	n := 0
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() && !strings.HasPrefix(d.Name(), ".tmp-") {
			n++
		}
		return nil
	})
	return n
}

// cacheLookups counts the verdict-cache hits and misses in a JSONL trace.
func cacheLookups(t *testing.T, path string) (hits, misses int) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var ev obs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("trace line %q: %v", sc.Text(), err)
		}
		if ev.Stage != obs.StageCache {
			continue
		}
		switch ev.Outcome {
		case obs.OutcomeHit:
			hits++
		case obs.OutcomeMiss:
			misses++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return hits, misses
}

// TestKillResume is the verdict cache's crash contract: SIGKILL an
// analysis with a -cache-dir mid-suite, rerun it with the same -cache-dir,
// and the rerun's report is byte-identical to an uncached run — with the
// loops finished before the kill served from the cache, not recomputed.
func TestKillResume(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns helper processes")
	}
	dir := t.TempDir()
	src := filepath.Join(dir, "prog.mc")
	if err := os.WriteFile(src, []byte(killResumeSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	cacheDir := filepath.Join(dir, "cache")
	// -j 1 completes loops in order, and the cache renames each loop's
	// fsynced record into place as the loop finishes.
	args := []string{"-j", "1", "-cache-dir", cacheDir, src}

	victim := runAnalyzeChild(t, args...)
	victim.Stdout, victim.Stderr = new(bytes.Buffer), new(bytes.Buffer)
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	// Wait for at least two entries, then kill. The third loop's replays
	// keep the child busy for far longer than the poll granularity, so the
	// suite cannot have finished.
	deadline := time.Now().Add(60 * time.Second)
	for countEntries(cacheDir) < 2 {
		if time.Now().After(deadline) {
			victim.Process.Kill()
			victim.Wait()
			t.Fatalf("fewer than 2 cache entries after 60s; child stderr: %s", victim.Stderr)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := victim.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	victim.Wait() // expected: killed

	// Rerun on the same cache: the finished loops are hits, the rest run.
	trace := filepath.Join(dir, "rerun.jsonl")
	var rerunOut, rerunErr bytes.Buffer
	rerun := runAnalyzeChild(t, append([]string{"-trace", trace}, args...)...)
	rerun.Stdout, rerun.Stderr = &rerunOut, &rerunErr
	if err := rerun.Run(); err != nil {
		t.Fatalf("rerun failed: %v\nstderr: %s", err, rerunErr.String())
	}
	hits, misses := cacheLookups(t, trace)
	t.Logf("rerun: %d cache hits, %d misses", hits, misses)
	if hits < 2 {
		t.Errorf("rerun served %d loops from the cache, want >= 2 (the pre-kill entries)", hits)
	}
	if misses < 1 {
		t.Errorf("rerun missed the cache %d times, want >= 1 (the kill landed mid-suite)", misses)
	}

	// An uninterrupted, uncached run of the same program is the reference.
	var freshOut, freshErr bytes.Buffer
	fresh := runAnalyzeChild(t, "-j", "1", src)
	fresh.Stdout, fresh.Stderr = &freshOut, &freshErr
	if err := fresh.Run(); err != nil {
		t.Fatalf("fresh run failed: %v\nstderr: %s", err, freshErr.String())
	}
	if !bytes.Equal(rerunOut.Bytes(), freshOut.Bytes()) {
		t.Errorf("rerun report differs from uninterrupted run:\n-- rerun --\n%s\n-- fresh --\n%s",
			rerunOut.String(), freshOut.String())
	}
}
