package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeWasod simulates the two server behaviors the overload gate must
// tell apart: an admission-controlled server that sheds with 429 past a
// concurrency cap (healthy), and a convoy server that queues everything
// behind one lock so latency grows without bound under overdrive
// (collapsing).
type fakeWasod struct {
	delay    time.Duration
	capacity int  // concurrent solves before shedding (0 with collapse)
	collapse bool // no shedding: serialize every request instead

	mu       sync.Mutex // collapse mode: the convoy lock
	inflight atomic.Int64
	shed     atomic.Int64
}

func (f *fakeWasod) server(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/graphs", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusCreated)
		fmt.Fprint(w, "{}")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintf(w, "# TYPE waso_shed_total counter\nwaso_shed_total %d\n", f.shed.Load())
	})
	mux.HandleFunc("POST /v1/solve", func(w http.ResponseWriter, _ *http.Request) {
		if f.collapse {
			f.mu.Lock()
			time.Sleep(f.delay)
			f.mu.Unlock()
			fmt.Fprint(w, "{}")
			return
		}
		if int(f.inflight.Add(1)) > f.capacity {
			f.inflight.Add(-1)
			f.shed.Add(1)
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		time.Sleep(f.delay)
		f.inflight.Add(-1)
		fmt.Fprint(w, "{}")
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestOverloadModePasses: against an admission-controlled server the full
// calibrate/overdrive/cooldown run passes — overdrive sheds without
// collapsing, cooldown sheds nothing — and the report documents it.
func TestOverloadModePasses(t *testing.T) {
	f := &fakeWasod{delay: 10 * time.Millisecond, capacity: 32}
	ts := f.server(t)

	var buf bytes.Buffer
	// This test asserts the mechanism — phases run, overdrive sheds,
	// client and server tallies agree, the report is coherent — not
	// wall-clock latency: under -race on a loaded runner, scheduler noise
	// dwarfs the fake's 10ms sleeps, so the p99 gate is effectively
	// disabled here (-p99-factor 50) and the client's own in-flight is
	// bounded. The latency gate itself is exercised by
	// TestOverloadModeCatchesCollapse and by CI's smoke run against a
	// real wasod at the production thresholds.
	err := run([]string{
		"-overload", "-url", ts.URL, "-phase", "500ms",
		"-n", "100", "-samples", "1", "-concurrency", "8",
		"-max-inflight", "64", "-p99-factor", "50",
	}, &buf)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	var rep overloadReport
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if !rep.Pass || len(rep.Failures) > 0 {
		t.Fatalf("report not passing: %+v", rep)
	}
	if len(rep.Phases) != 3 {
		t.Fatalf("got %d phases, want 3: %+v", len(rep.Phases), rep.Phases)
	}
	calibrate, overdrive, cooldown := rep.Phases[0], rep.Phases[1], rep.Phases[2]
	if calibrate.Name != "calibrate" || overdrive.Name != "overdrive" || cooldown.Name != "cooldown" {
		t.Fatalf("phase names: %+v", rep.Phases)
	}
	if rep.CalibratedQPS <= 0 || rep.OfferedQPS < 3.9*rep.CalibratedQPS {
		t.Errorf("offered %f qps not ~4x calibrated %f", rep.OfferedQPS, rep.CalibratedQPS)
	}
	if overdrive.Shed == 0 || overdrive.ShedTotalDelta == 0 {
		t.Errorf("overdrive did not shed: %+v", overdrive)
	}
	if overdrive.OK == 0 || overdrive.P99Ns <= 0 {
		t.Errorf("overdrive has no goodput profile: %+v", overdrive)
	}
	if cooldown.Shed != 0 || cooldown.ShedTotalDelta != 0 {
		t.Errorf("cooldown shed: %+v", cooldown)
	}
	// The scraped counter agrees with the client's own 429 tally.
	if overdrive.ShedTotalDelta != float64(overdrive.Shed) {
		t.Errorf("server counted %.0f sheds, client saw %d", overdrive.ShedTotalDelta, overdrive.Shed)
	}
}

// TestOverloadModeCatchesCollapse: a server with no admission control
// (every request convoys behind one lock) fails the gate — it sheds
// nothing while its non-shed latency blows out — and the run reports the
// failing assertions while still writing the report.
func TestOverloadModeCatchesCollapse(t *testing.T) {
	f := &fakeWasod{delay: 2 * time.Millisecond, collapse: true}
	ts := f.server(t)

	var buf bytes.Buffer
	err := run([]string{
		"-overload", "-url", ts.URL, "-phase", "400ms",
		"-n", "100", "-samples", "1", "-concurrency", "4",
		"-max-inflight", "128",
	}, &buf)
	if err == nil {
		t.Fatalf("collapsing server passed the overload gate:\n%s", buf.String())
	}
	var rep overloadReport
	if jerr := json.Unmarshal(buf.Bytes(), &rep); jerr != nil {
		t.Fatalf("failing run wrote no report: %v\n%s", jerr, buf.String())
	}
	if rep.Pass || len(rep.Failures) == 0 {
		t.Fatalf("failing run reported pass: %+v", rep)
	}
	foundShedFailure := false
	for _, f := range rep.Failures {
		if bytes.Contains([]byte(f), []byte("shed nothing")) {
			foundShedFailure = true
		}
	}
	if !foundShedFailure {
		t.Errorf("failures %v do not name the missing shedding", rep.Failures)
	}
}

// TestOverloadBadFlags: overload mode rejects configurations it cannot
// honour instead of silently reshaping them.
func TestOverloadBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-overload"}, // no -url
		{"-overload", "-url", "http://x", "-concurrency", "0"},
		{"-overload", "-url", "http://x", "-n", "100,200"},
		{"-overload", "-url", "http://x", "-ks", "4,10"},
		{"-overload", "-url", "http://x", "-algos", "cbas,cbasnd"},
		{"-overload", "-url", "http://x", "-phase", "0s"},
		{"-overload", "-url", "http://x", "-overdrive-factor", "1"},
	} {
		if err := run(append([]string{"-samples", "1"}, args...), &bytes.Buffer{}); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}
