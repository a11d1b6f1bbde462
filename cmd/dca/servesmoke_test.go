package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"dca/internal/core"
)

// serveSmokeSrc has loops of several shapes — a fill, a reduction, a nest
// and a loop in a callee — so the report has more than one row to order.
const serveSmokeSrc = `
func scale(a []int, n int) {
	for (var i int = 0; i < n; i++) { a[i] = a[i] * 2; }
}
func main() {
	var a []int = new [64]int;
	for (var i int = 0; i < 64; i++) { a[i] = i * 3; }
	scale(a, 64);
	var s int = 0;
	for (var i int = 0; i < 64; i++) { s = s + a[i]; }
	var p int = 0;
	for (var i int = 0; i < 40; i++) {
		for (var j int = 0; j < 40; j++) { p = p + (i ^ j); }
	}
	print(s); print(p);
}`

// TestServeSmokeHelper is not a test: it is the child process body for
// TestServeSmoke, re-executed from the test binary to run `dca serve` with
// the argument list from the environment.
func TestServeSmokeHelper(t *testing.T) {
	raw := os.Getenv("DCA_SERVE_SMOKE_ARGS")
	if raw == "" {
		t.Skip("helper process body; run via TestServeSmoke")
	}
	if err := cmdServe(strings.Split(raw, "\x1f")); err != nil {
		fmt.Fprintln(os.Stderr, "helper:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

func startServeChild(t *testing.T, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=TestServeSmokeHelper")
	cmd.Env = append(os.Environ(), "DCA_SERVE_SMOKE_ARGS="+strings.Join(args, "\x1f"))
	cmd.Stderr = new(bytes.Buffer)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	return cmd
}

// freeAddr reserves a loopback port and releases it for a child to bind.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func waitHealthy(t *testing.T, url string, child *exec.Cmd) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never became healthy; child stderr: %s", url, child.Stderr)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// smokeTable renders the deterministic per-loop fields of a report's rows.
func smokeTable(loops []core.LoopJSON) string {
	var b strings.Builder
	for _, l := range loops {
		fmt.Fprintf(&b, "%s #%d %s %s\n", l.Fn, l.Index, l.Verdict, l.Reason)
	}
	return b.String()
}

// TestServeSmoke is the process-level `dca serve` contract: flags become a
// server config and a live listener; a program posted synchronously and
// with ?async=1 yields the same table, streamed and final; and SIGTERM
// drains and exits cleanly inside the drain window.
func TestServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a helper process")
	}
	addr := freeAddr(t)
	url := "http://" + addr
	const drain = 10 * time.Second
	child := startServeChild(t, "-addr", addr, "-j", "2", "-schedules", "1",
		"-drain-timeout", drain.String())
	waitHealthy(t, url, child)

	reqBody, _ := json.Marshal(map[string]any{"filename": "smoke.mc", "source": serveSmokeSrc})

	resp, err := http.Post(url+"/analyze", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	var syncOut struct {
		Report *core.ReportJSON `json:"report"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&syncOut); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || syncOut.Report == nil {
		t.Fatalf("sync analyze: status %d; child stderr: %s", resp.StatusCode, child.Stderr)
	}
	if len(syncOut.Report.Loops) < 4 {
		t.Fatalf("sync report has %d loops, want >= 4", len(syncOut.Report.Loops))
	}
	want := smokeTable(syncOut.Report.Loops)

	resp, err = http.Post(url+"/analyze?async=1", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	var handle struct {
		EventsURL string `json:"events_url"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&handle); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async analyze: status %d", resp.StatusCode)
	}

	events, err := http.Get(url + handle.EventsURL)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []core.LoopJSON
	var final struct {
		State  string           `json:"state"`
		Report *core.ReportJSON `json:"report"`
	}
	sc := bufio.NewScanner(events.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		var probe struct {
			State string `json:"state"`
		}
		if json.Unmarshal(line, &probe) == nil && probe.State != "" {
			if err := json.Unmarshal(line, &final); err != nil {
				t.Fatalf("decode terminal status: %v\n%s", err, line)
			}
			break
		}
		var lj core.LoopJSON
		if err := json.Unmarshal(line, &lj); err != nil {
			t.Fatalf("decode loop event: %v\n%s", err, line)
		}
		streamed = append(streamed, lj)
	}
	events.Body.Close()
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if final.State != "done" || final.Report == nil {
		t.Fatalf("async run = %+v, want done with report; child stderr: %s", final, child.Stderr)
	}
	if got := smokeTable(streamed); got != want {
		t.Errorf("streamed table diverged from sync:\n-- sync --\n%s-- streamed --\n%s", want, got)
	}
	if got := smokeTable(final.Report.Loops); got != want {
		t.Errorf("async report diverged from sync:\n-- sync --\n%s-- async --\n%s", want, got)
	}

	if err := child.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- child.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("serve exited uncleanly after SIGTERM: %v; stderr: %s", err, child.Stderr)
		}
	case <-time.After(drain + 5*time.Second):
		child.Process.Kill()
		<-exited
		t.Fatalf("serve still running %v after SIGTERM; stderr: %s", drain+5*time.Second, child.Stderr)
	}
	if !strings.Contains(fmt.Sprint(child.Stderr), "drained, bye") {
		t.Errorf("serve exited without the drain message; stderr: %s", child.Stderr)
	}
}
