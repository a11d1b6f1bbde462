package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"dca/internal/cache"
	"dca/internal/core"
)

// postAsync submits an async analysis and decodes the 202 run handle.
func postAsync(t *testing.T, url string, req AnalyzeRequest) runHandle {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/analyze?async=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		t.Fatalf("async analyze status = %d, want 202: %s", resp.StatusCode, buf.Bytes())
	}
	var h runHandle
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.RunID == "" || h.StatusURL == "" || h.EventsURL == "" {
		t.Fatalf("incomplete run handle: %+v", h)
	}
	return h
}

// readEvents consumes a run's NDJSON stream: per-loop verdicts followed by
// the terminal status line.
func readEvents(t *testing.T, url string) ([]core.LoopJSON, Status) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events content type = %q, want application/x-ndjson", ct)
	}
	var loops []core.LoopJSON
	var final Status
	sc := bufio.NewScanner(resp.Body)
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
			continue
		}
		var lj core.LoopJSON
		if err := json.Unmarshal(line, &lj); err != nil {
			t.Fatalf("decode loop event: %v\n%s", err, line)
		}
		loops = append(loops, lj)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if final.State == "" {
		t.Fatal("stream ended without a terminal status line")
	}
	return loops, final
}

// TestAsyncRunStreamsEveryVerdictOnce: an async run answers 202
// immediately, streams every per-loop verdict exactly once in source
// order, and its final report matches the synchronous path.
func TestAsyncRunStreamsEveryVerdictOnce(t *testing.T) {
	c, err := cache.Open("", 0, core.CacheRecordVersion)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Cache: c, Workers: 2})

	_, body := postAnalyze(t, ts.URL, AnalyzeRequest{Filename: "t.mc", Source: testSrc})
	syncRep := decodeReport(t, body)

	h := postAsync(t, ts.URL, AnalyzeRequest{Filename: "t.mc", Source: testSrc})
	if h.TotalLoops != len(syncRep.Loops) {
		t.Fatalf("handle total_loops = %d, want %d", h.TotalLoops, len(syncRep.Loops))
	}
	loops, final := readEvents(t, ts.URL+h.EventsURL)
	if final.State != "done" || final.Report == nil {
		t.Fatalf("terminal status = %+v, want done with report", final)
	}
	if len(loops) != len(syncRep.Loops) {
		t.Fatalf("streamed %d loop events, want %d", len(loops), len(syncRep.Loops))
	}
	for i, lj := range loops {
		want := syncRep.Loops[i]
		if lj.Fn != want.Fn || lj.Index != want.Index || lj.Verdict != want.Verdict {
			t.Errorf("event %d = %s#%d %s, want %s#%d %s (source order violated)",
				i, lj.Fn, lj.Index, lj.Verdict, want.Fn, want.Index, want.Verdict)
		}
	}

	// A late subscriber replays the identical stream.
	replay, _ := readEvents(t, ts.URL+h.EventsURL)
	if len(replay) != len(loops) {
		t.Fatalf("late subscriber saw %d events, want %d", len(replay), len(loops))
	}

	// The status endpoint agrees.
	resp, err := http.Get(ts.URL + h.StatusURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.State != "done" || st.CompletedLoops != len(syncRep.Loops) {
		t.Fatalf("status = %+v, want done with %d loops", st, len(syncRep.Loops))
	}
}

// TestAsyncEventsSSE: Accept: text/event-stream switches the stream to SSE
// framing with "loop" and "done" events.
func TestAsyncEventsSSE(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	h := postAsync(t, ts.URL, AnalyzeRequest{Filename: "t.mc", Source: testSrc})

	req, _ := http.NewRequest("GET", ts.URL+h.EventsURL, nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q, want text/event-stream", ct)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	out := buf.String()
	if got := strings.Count(out, "event: loop\n"); got != h.TotalLoops {
		t.Errorf("SSE stream has %d loop events, want %d:\n%s", got, h.TotalLoops, out)
	}
	if !strings.Contains(out, "event: done\n") {
		t.Errorf("SSE stream has no done event:\n%s", out)
	}
}

// TestAsyncDisconnectDoesNotCancelRun: tearing down an event subscriber
// leaves the run running to completion; no verdict comes back cancelled.
func TestAsyncDisconnectDoesNotCancelRun(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	h := postAsync(t, ts.URL, AnalyzeRequest{Filename: "t.mc", Source: testSrc})

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+h.EventsURL, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	cancel() // disconnect mid-stream
	resp.Body.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + h.StatusURL)
		if err != nil {
			t.Fatal(err)
		}
		var st Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if st.State == "done" {
			if st.Report == nil {
				t.Fatal("done run has no report")
			}
			for _, l := range st.Report.Loops {
				if l.Verdict == "cancelled" {
					t.Errorf("loop %s#%d cancelled; disconnect propagated into the run", l.Fn, l.Index)
				}
			}
			return
		}
		if st.State == "error" {
			t.Fatalf("run erred after disconnect: %s", st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("run never finished after disconnect; status %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAnalyzeKnobValidation: the PR-7 knobs ride the request schema with
// the same validation discipline as the sandbox ceilings.
func TestAnalyzeKnobValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	resp, body := postAnalyze(t, ts.URL, AnalyzeRequest{Filename: "t.mc", Source: testSrc, StopAfter: -1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("stop_after=-1 status = %d, want 400: %s", resp.StatusCode, body)
	}

	resp, body = postAnalyze(t, ts.URL, AnalyzeRequest{
		Filename: "t.mc", Source: testSrc,
		StopAfter: 1, NoFootprint: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("knobbed analyze status = %d, want 200: %s", resp.StatusCode, body)
	}
	if rep := decodeReport(t, body); len(rep.Loops) == 0 {
		t.Fatal("knobbed analyze produced no loops")
	}
}

// TestRunEndpointsUnknownID: both run endpoints 404 on unknown handles.
func TestRunEndpointsUnknownID(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	for _, path := range []string{"/runs/nope", "/runs/nope/events"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
}
