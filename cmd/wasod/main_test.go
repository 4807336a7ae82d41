package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"waso/internal/core"
	"waso/internal/gen"
	"waso/internal/graph"
	"waso/internal/objective"
	"waso/internal/service"
	"waso/internal/solver"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	return newConfiguredServer(t, service.Config{DefaultTimeout: 30 * time.Second})
}

func newConfiguredServer(t *testing.T, cfg service.Config) *httptest.Server {
	t.Helper()
	svc := service.New(cfg)
	ts := httptest.NewServer(newMux(svc, 64<<20, 30*time.Second, false, nil))
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return ts
}

func doJSON(t *testing.T, method, url, body string) (int, []byte) {
	t.Helper()
	status, blob, err := tryJSON(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	return status, blob
}

// tryJSON is the non-fatal variant for goroutines other than the test
// goroutine, where t.Fatal's FailNow is illegal.
func tryJSON(method, url, body string) (int, []byte, error) {
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, blob, nil
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t)
	if status, body := doJSON(t, "POST", ts.URL+"/v1/graphs",
		`{"id":"h","generate":{"kind":"er","n":30,"avgdeg":2,"seed":1}}`); status != http.StatusCreated {
		t.Fatalf("generate: %d %s", status, body)
	}
	status, body := doJSON(t, "GET", ts.URL+"/healthz", "")
	if status != http.StatusOK {
		t.Fatalf("healthz: %d %s", status, body)
	}
	var h struct {
		Graphs        int      `json:"graphs"`
		ExecutorQueue *int     `json:"executor_queue"`
		UptimeS       *float64 `json:"uptime_s"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("healthz body %s: %v", body, err)
	}
	if h.Graphs != 1 || h.ExecutorQueue == nil || h.UptimeS == nil || *h.UptimeS < 0 {
		t.Errorf("healthz = %s, want graphs=1 with executor_queue and uptime_s present", body)
	}
}

func TestGraphLifecycleHTTP(t *testing.T) {
	ts := newTestServer(t)

	status, body := doJSON(t, "POST", ts.URL+"/v1/graphs",
		`{"id":"pl1","generate":{"kind":"powerlaw","n":300,"avgdeg":8,"seed":3}}`)
	if status != http.StatusCreated {
		t.Fatalf("generate: %d %s", status, body)
	}
	var info service.GraphInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.ID != "pl1" || info.Nodes != 300 || info.Edges == 0 {
		t.Errorf("info = %+v", info)
	}

	// Duplicate id conflicts.
	if status, _ := doJSON(t, "POST", ts.URL+"/v1/graphs",
		`{"id":"pl1","generate":{"kind":"er","n":10,"avgdeg":2,"seed":1}}`); status != http.StatusConflict {
		t.Errorf("duplicate id: %d, want 409", status)
	}

	// Edge-list upload.
	status, body = doJSON(t, "POST", ts.URL+"/v1/graphs",
		`{"id":"tiny","graph":{"nodes":3,"interest":[1,2,3],"edges":[{"src":0,"dst":1,"tau":0.5},{"src":1,"dst":2}]}}`)
	if status != http.StatusCreated {
		t.Fatalf("upload: %d %s", status, body)
	}

	status, body = doJSON(t, "GET", ts.URL+"/v1/graphs", "")
	if status != http.StatusOK {
		t.Fatalf("list: %d %s", status, body)
	}
	var list struct {
		Graphs []service.GraphInfo `json:"graphs"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Graphs) != 2 || list.Graphs[0].ID != "pl1" || list.Graphs[1].ID != "tiny" {
		t.Errorf("list = %+v", list.Graphs)
	}
	for _, gi := range list.Graphs {
		if gi.Nodes == 0 || !gi.Prepped {
			t.Errorf("list entry %s missing size/prep info: %+v", gi.ID, gi)
		}
	}

	if status, _ := doJSON(t, "DELETE", ts.URL+"/v1/graphs/tiny", ""); status != http.StatusNoContent {
		t.Errorf("evict: %d, want 204", status)
	}
	if status, _ := doJSON(t, "DELETE", ts.URL+"/v1/graphs/tiny", ""); status != http.StatusNotFound {
		t.Errorf("double evict: %d, want 404", status)
	}
}

func TestBinaryUploadHTTP(t *testing.T) {
	ts := newTestServer(t)
	g, err := gen.Spec{Kind: "er", N: 64, AvgDeg: 4, Seed: 9}.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := graph.Encode(&buf, g); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/graphs?id=bin1", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		blob, _ := io.ReadAll(resp.Body)
		t.Fatalf("binary upload: %d %s", resp.StatusCode, blob)
	}
	// Corrupt binary is rejected.
	resp2, err := http.Post(ts.URL+"/v1/graphs?id=bin2", "application/octet-stream",
		strings.NewReader("not a waso graph"))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("corrupt binary: %d, want 400", resp2.StatusCode)
	}
}

// TestBodyLimits: oversized bodies get 413, and generate specs or upload
// documents above the server's node/edge caps get 400 without the graph
// ever being allocated.
func TestBodyLimits(t *testing.T) {
	svc := service.New(service.Config{MaxNodes: 1000, MaxEdges: 10000})
	ts := httptest.NewServer(newMux(svc, 1<<10, time.Second, false, nil)) // 1 KiB body cap
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	big := fmt.Sprintf(`{"id":"x","graph":{"nodes":2,"interest":[1,2],"edges":[{"src":0,"dst":1}]},"pad":%q}`,
		strings.Repeat("z", 4096))
	if status, body := doJSON(t, "POST", ts.URL+"/v1/graphs", big); status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: %d %s, want 413", status, body)
	}
	began := time.Now()
	cases := []struct{ name, body string }{
		{"over-cap generate nodes", `{"id":"h1","generate":{"kind":"er","n":2000000000,"avgdeg":8,"seed":1}}`},
		{"over-cap generate edges", `{"id":"h2","generate":{"kind":"er","n":1000,"avgdeg":1000000000,"seed":1}}`},
		{"over-cap upload nodes", `{"id":"h3","graph":{"nodes":2000000000,"edges":[]}}`},
	}
	for _, tc := range cases {
		if status, body := doJSON(t, "POST", ts.URL+"/v1/graphs", tc.body); status != http.StatusBadRequest {
			t.Errorf("%s: %d %s, want 400", tc.name, status, body)
		}
	}
	// Rejection must happen before any build: instant, no allocation.
	if d := time.Since(began); d > 2*time.Second {
		t.Errorf("cap rejections took %v, want instant", d)
	}
}

// TestSolveMatchesCLIPath: the server returns the same willingness as a
// direct solver call for the same (graph, algo, Request) — the acceptance
// bar that the HTTP layer adds routing, not semantics.
func TestSolveMatchesCLIPath(t *testing.T) {
	ts := newTestServer(t)
	spec := gen.Spec{Kind: "powerlaw", N: 400, AvgDeg: 8, Seed: 5}
	if status, body := doJSON(t, "POST", ts.URL+"/v1/graphs",
		`{"id":"g","generate":{"kind":"powerlaw","n":400,"avgdeg":8,"seed":5}}`); status != http.StatusCreated {
		t.Fatalf("generate: %d %s", status, body)
	}

	for _, algo := range solver.Names() {
		status, body := doJSON(t, "POST", ts.URL+"/v1/solve",
			fmt.Sprintf(`{"graph":"g","algo":%q,"request":{"k":10,"samples":30,"seed":42}}`, algo))
		if status != http.StatusOK {
			t.Fatalf("%s: %d %s", algo, status, body)
		}
		var got struct {
			Graph  string      `json:"graph"`
			Report core.Report `json:"report"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}

		g, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		req := core.DefaultRequest(10)
		req.Samples = 30
		req.Seed = 42
		sv, err := solver.New(algo)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sv.Solve(context.Background(), g, req)
		if err != nil {
			t.Fatal(err)
		}
		if got.Report.Best.Willingness != want.Best.Willingness || !got.Report.Best.Equal(want.Best) {
			t.Errorf("%s: server %v != direct %v", algo, got.Report.Best, want.Best)
		}
		if got.Report.SamplesDrawn != want.SamplesDrawn {
			t.Errorf("%s: server drew %d samples, direct %d", algo, got.Report.SamplesDrawn, want.SamplesDrawn)
		}
	}
}

// TestSolveObjectivesHTTP: every registered objective is servable through
// the request's "objective" field, bit-identical to a direct solver call;
// an unknown objective — including the deleted "budget" preset — is the
// client's mistake (400), not a 500, and the error lists exactly the
// registered objectives.
func TestSolveObjectivesHTTP(t *testing.T) {
	ts := newTestServer(t)
	spec := gen.Spec{Kind: "powerlaw", N: 300, AvgDeg: 8, Seed: 6}
	if status, body := doJSON(t, "POST", ts.URL+"/v1/graphs",
		`{"id":"o","generate":{"kind":"powerlaw","n":300,"avgdeg":8,"seed":6}}`); status != http.StatusCreated {
		t.Fatalf("generate: %d %s", status, body)
	}
	g, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, obj := range objective.Names() {
		status, body := doJSON(t, "POST", ts.URL+"/v1/solve",
			fmt.Sprintf(`{"graph":"o","algo":"cbasnd","request":{"k":8,"samples":25,"seed":3,"objective":%q}}`, obj))
		if status != http.StatusOK {
			t.Fatalf("%s: %d %s", obj, status, body)
		}
		var got struct {
			Report core.Report `json:"report"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		req := core.DefaultRequest(8)
		req.Samples = 25
		req.Seed = 3
		req.Objective = obj
		want, err := (solver.CBASND{}).Solve(context.Background(), g, req)
		if err != nil {
			t.Fatal(err)
		}
		if got.Report.Best.Willingness != want.Best.Willingness || !got.Report.Best.Equal(want.Best) {
			t.Errorf("%s: server %v != direct %v", obj, got.Report.Best, want.Best)
		}
	}
	for _, obj := range []string{"entropy", "budget"} {
		status, body := doJSON(t, "POST", ts.URL+"/v1/solve",
			fmt.Sprintf(`{"graph":"o","algo":"cbasnd","request":{"k":8,"objective":%q}}`, obj))
		if status != http.StatusBadRequest {
			t.Errorf("unknown objective %q: %d %s, want 400", obj, status, body)
		} else if !strings.Contains(string(body), "(have friend, willingness)") {
			t.Errorf("unknown objective %q: body %s does not list exactly friend, willingness", obj, body)
		}
	}
}

// TestSolveDeadlineHTTP: a 1ms deadline on a large instance returns 504
// (context.DeadlineExceeded) instead of running to completion.
func TestSolveDeadlineHTTP(t *testing.T) {
	ts := newTestServer(t)
	if status, body := doJSON(t, "POST", ts.URL+"/v1/graphs",
		`{"id":"big","generate":{"kind":"powerlaw","n":3000,"avgdeg":10,"seed":2}}`); status != http.StatusCreated {
		t.Fatalf("generate: %d %s", status, body)
	}
	began := time.Now()
	status, body := doJSON(t, "POST", ts.URL+"/v1/solve",
		`{"graph":"big","algo":"cbasnd","timeout_ms":1,"request":{"k":20,"samples":1048576}}`)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("deadline solve: %d %s, want 504", status, body)
	}
	if !strings.Contains(string(body), "deadline") {
		t.Errorf("body %s does not mention the deadline", body)
	}
	if d := time.Since(began); d > 10*time.Second {
		t.Errorf("1ms-deadline request took %v", d)
	}
}

// TestTimeoutClampHTTP: a huge client timeout_ms cannot push the solve
// past the server's own bound — the operator's -timeout wins.
func TestTimeoutClampHTTP(t *testing.T) {
	svc := service.New(service.Config{DefaultTimeout: 20 * time.Millisecond})
	ts := httptest.NewServer(newMux(svc, 64<<20, 20*time.Millisecond, false, nil))
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	if status, body := doJSON(t, "POST", ts.URL+"/v1/graphs",
		`{"id":"big","generate":{"kind":"powerlaw","n":3000,"avgdeg":10,"seed":2}}`); status != http.StatusCreated {
		t.Fatalf("generate: %d %s", status, body)
	}
	began := time.Now()
	status, body := doJSON(t, "POST", ts.URL+"/v1/solve",
		`{"graph":"big","algo":"cbasnd","timeout_ms":86400000,"request":{"k":20,"samples":1048576}}`)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("clamped solve: %d %s, want 504", status, body)
	}
	if d := time.Since(began); d > 10*time.Second {
		t.Errorf("clamped request took %v, want ~20ms", d)
	}
}

func TestSolveErrorsHTTP(t *testing.T) {
	ts := newTestServer(t)
	if status, body := doJSON(t, "POST", ts.URL+"/v1/graphs",
		`{"id":"g","generate":{"kind":"er","n":50,"avgdeg":4,"seed":1}}`); status != http.StatusCreated {
		t.Fatalf("generate: %d %s", status, body)
	}
	cases := []struct {
		name, body string
		want       int
	}{
		{"unknown graph", `{"graph":"nope","algo":"dgreedy","request":{"k":5}}`, http.StatusNotFound},
		{"unknown algo", `{"graph":"g","algo":"oracle","request":{"k":5}}`, http.StatusBadRequest},
		{"invalid k", `{"graph":"g","algo":"dgreedy","request":{"k":0}}`, http.StatusBadRequest},
		{"unknown request field", `{"graph":"g","algo":"dgreedy","request":{"k":5,"tuning":9}}`, http.StatusBadRequest},
		{"malformed body", `{"graph":`, http.StatusBadRequest},
		{"missing request k", `{"graph":"g","algo":"dgreedy"}`, http.StatusBadRequest},
		// Validates clean but cannot produce a group — still the client's
		// mistake (solver.ErrNoGroup → ErrInvalid), not a 500.
		{"rgreedy zero samples", `{"graph":"g","algo":"rgreedy","request":{"k":5,"samples":0}}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if status, body := doJSON(t, "POST", ts.URL+"/v1/solve", tc.body); status != tc.want {
			t.Errorf("%s: %d %s, want %d", tc.name, status, body, tc.want)
		}
	}
	// Explicit zero samples is valid for greedy-seeded solvers.
	if status, body := doJSON(t, "POST", ts.URL+"/v1/solve",
		`{"graph":"g","algo":"cbas","request":{"k":5,"samples":0}}`); status != http.StatusOK {
		t.Errorf("zero samples: %d %s, want 200", status, body)
	}
	// region is still a request field.
	if status, body := doJSON(t, "POST", ts.URL+"/v1/solve",
		`{"graph":"g","algo":"cbasnd","request":{"k":5,"region":"off"}}`); status != http.StatusOK {
		t.Errorf("region off: %d %s, want 200", status, body)
	}
	// A request says what to solve, not how: the removed execution knobs
	// are unknown fields, and a budget past the Starts × Samples bound —
	// which a solve would lay out as tasks before its first deadline
	// check — is refused before any allocation. Each 400 names the field.
	for _, tc := range []struct {
		name, request string
		fields        []string
	}{
		{"sampler", `{"k":5,"sampler":"linear"}`, []string{`unknown field "sampler"`}},
		{"prune", `{"k":5,"prune":false}`, []string{`unknown field "prune"`}},
		{"workers", `{"k":5,"workers":2}`, []string{`unknown field "workers"`}},
		{"2^40 samples", `{"k":5,"samples":1099511627776}`, []string{"Request.Starts", "Request.Samples"}},
		{"overflowing budget", `{"k":5,"starts":4611686018427387904,"samples":4}`, []string{"Request.Starts", "Request.Samples"}},
	} {
		status, body := doJSON(t, "POST", ts.URL+"/v1/solve",
			`{"graph":"g","algo":"cbasnd","request":`+tc.request+`}`)
		var msg struct{ Error string }
		if status != http.StatusBadRequest || json.Unmarshal(body, &msg) != nil {
			t.Errorf("%s: %d %s, want a 400 error body", tc.name, status, body)
			continue
		}
		for _, f := range tc.fields {
			if !strings.Contains(msg.Error, f) {
				t.Errorf("%s: error %q does not name %s", tc.name, msg.Error, f)
			}
		}
	}
}

// TestStatusOf: the error→status table. Client-caused sentinels map to
// their 4xx codes; anything unrecognized is a server fault and maps to
// 500, not the 400 that used to mislabel it.
func TestStatusOf(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"invalid", service.ErrInvalid, http.StatusBadRequest},
		{"wrapped invalid", fmt.Errorf("%w: bad k", service.ErrInvalid), http.StatusBadRequest},
		{"not found", fmt.Errorf("%w: %q", service.ErrNotFound, "g"), http.StatusNotFound},
		{"exists", fmt.Errorf("%w: %q", service.ErrExists, "g"), http.StatusConflict},
		{"deadline", context.DeadlineExceeded, http.StatusGatewayTimeout},
		{"wrapped deadline", fmt.Errorf("solve: %w", context.DeadlineExceeded), http.StatusGatewayTimeout},
		{"canceled", context.Canceled, 499},
		{"too big", &http.MaxBytesError{Limit: 10}, http.StatusRequestEntityTooLarge},
		{"too big wrapped in invalid", fmt.Errorf("%w: %w", service.ErrInvalid, &http.MaxBytesError{Limit: 10}), http.StatusRequestEntityTooLarge},
		{"server fault", errors.New("pool exploded"), http.StatusInternalServerError},
		{"wrapped server fault", fmt.Errorf("solver: %w", errors.New("oom")), http.StatusInternalServerError},
	}
	for _, tc := range cases {
		if got := statusOf(tc.err); got != tc.want {
			t.Errorf("statusOf(%s) = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestNegativeTimeoutHTTP: a negative timeout_ms is a client error on both
// solve endpoints — it used to be silently ignored, running with no
// per-request deadline.
func TestNegativeTimeoutHTTP(t *testing.T) {
	ts := newTestServer(t)
	if status, body := doJSON(t, "POST", ts.URL+"/v1/graphs",
		`{"id":"g","generate":{"kind":"er","n":50,"avgdeg":4,"seed":1}}`); status != http.StatusCreated {
		t.Fatalf("generate: %d %s", status, body)
	}
	status, body := doJSON(t, "POST", ts.URL+"/v1/solve",
		`{"graph":"g","algo":"dgreedy","timeout_ms":-5,"request":{"k":5}}`)
	if status != http.StatusBadRequest || !strings.Contains(string(body), "timeout_ms") {
		t.Errorf("negative timeout solve: %d %s, want 400", status, body)
	}
	status, body = doJSON(t, "POST", ts.URL+"/v1/solve/batch",
		`{"graph":"g","timeout_ms":-1,"items":[{"algo":"dgreedy","request":{"k":5}}]}`)
	if status != http.StatusBadRequest || !strings.Contains(string(body), "timeout_ms") {
		t.Errorf("negative timeout batch: %d %s, want 400", status, body)
	}
}

// TestBinaryUploadIDChecks: the binary path validates the id before paying
// graph.Decode — an empty or duplicate ?id= with an undecodable body
// reports the id error, proving Decode never ran.
func TestBinaryUploadIDChecks(t *testing.T) {
	ts := newTestServer(t)
	post := func(url string) (int, string) {
		resp, err := http.Post(url, "application/octet-stream", strings.NewReader("not a waso graph"))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		blob, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(blob)
	}
	if status, body := post(ts.URL + "/v1/graphs"); status != http.StatusBadRequest ||
		!strings.Contains(body, "empty graph id") {
		t.Errorf("empty id: %d %s, want 400 naming the id", status, body)
	}
	if status, body := doJSON(t, "POST", ts.URL+"/v1/graphs",
		`{"id":"dup","generate":{"kind":"er","n":20,"avgdeg":2,"seed":1}}`); status != http.StatusCreated {
		t.Fatalf("generate: %d %s", status, body)
	}
	// A taken id conflicts (409) before the corrupt body is decoded — a
	// decode-first path would have answered 400.
	if status, body := post(ts.URL + "/v1/graphs?id=dup"); status != http.StatusConflict {
		t.Errorf("duplicate id: %d %s, want 409", status, body)
	}
}

// TestSolveBatchHTTP: the batch endpoint answers positionally with
// per-item statuses, item failures are isolated, and successful items are
// bit-identical to their single-solve counterparts.
func TestSolveBatchHTTP(t *testing.T) {
	ts := newTestServer(t)
	if status, body := doJSON(t, "POST", ts.URL+"/v1/graphs",
		`{"id":"g","generate":{"kind":"powerlaw","n":400,"avgdeg":8,"seed":5}}`); status != http.StatusCreated {
		t.Fatalf("generate: %d %s", status, body)
	}
	status, body := doJSON(t, "POST", ts.URL+"/v1/solve/batch",
		`{"graph":"g","items":[
			{"algo":"cbas","request":{"k":10,"samples":30,"seed":42}},
			{"algo":"oracle","request":{"k":5}},
			{"algo":"cbasnd","request":{"k":0}},
			{"algo":"dgreedy","request":{"k":6}}
		]}`)
	if status != http.StatusOK {
		t.Fatalf("batch: %d %s", status, body)
	}
	var got struct {
		Graph string `json:"graph"`
		Items []struct {
			Status int          `json:"status"`
			Algo   string       `json:"algo"`
			Report *core.Report `json:"report"`
			Error  string       `json:"error"`
		} `json:"items"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Items) != 4 {
		t.Fatalf("got %d items, want 4", len(got.Items))
	}
	if got.Items[1].Status != http.StatusBadRequest || got.Items[1].Error == "" {
		t.Errorf("unknown algo item: %+v", got.Items[1])
	}
	if got.Items[2].Status != http.StatusBadRequest {
		t.Errorf("invalid request item: %+v", got.Items[2])
	}
	for _, i := range []int{0, 3} {
		if got.Items[i].Status != http.StatusOK || got.Items[i].Report == nil {
			t.Fatalf("item %d: %+v", i, got.Items[i])
		}
	}

	// Item 0 must match the single-solve path bit for bit.
	status, single := doJSON(t, "POST", ts.URL+"/v1/solve",
		`{"graph":"g","algo":"cbas","request":{"k":10,"samples":30,"seed":42}}`)
	if status != http.StatusOK {
		t.Fatalf("single solve: %d %s", status, single)
	}
	var want solveResponse
	if err := json.Unmarshal(single, &want); err != nil {
		t.Fatal(err)
	}
	if !got.Items[0].Report.Best.Equal(want.Report.Best) ||
		got.Items[0].Report.Best.Willingness != want.Report.Best.Willingness {
		t.Errorf("batch item %v != single solve %v", got.Items[0].Report.Best, want.Report.Best)
	}

	// Whole-batch errors use the uniform envelope.
	if status, _ := doJSON(t, "POST", ts.URL+"/v1/solve/batch",
		`{"graph":"nope","items":[{"algo":"dgreedy","request":{"k":5}}]}`); status != http.StatusNotFound {
		t.Errorf("unknown graph batch: %d, want 404", status)
	}
	if status, _ := doJSON(t, "POST", ts.URL+"/v1/solve/batch",
		`{"graph":"g","items":[]}`); status != http.StatusBadRequest {
		t.Errorf("empty batch: %d, want 400", status)
	}
	if status, body := doJSON(t, "POST", ts.URL+"/v1/solve/batch",
		`{"graph":"g","items":[{"algo":"cbas","request":{"k":5,"bogus":1}}]}`); status != http.StatusBadRequest ||
		!strings.Contains(string(body), "items[0]") {
		t.Errorf("malformed item: %d %s, want 400 naming the item", status, body)
	}
}

// TestRegionCacheDisabledHTTP: a server with region caching disabled
// (MaxRegions < 0, the -maxregions=-1 operator setting) still serves
// solves correctly.
func TestRegionCacheDisabledHTTP(t *testing.T) {
	ts := newConfiguredServer(t, service.Config{DefaultTimeout: 30 * time.Second, MaxRegions: -1})
	if status, body := doJSON(t, "POST", ts.URL+"/v1/graphs",
		`{"id":"g","generate":{"kind":"er","n":400,"avgdeg":2,"seed":3}}`); status != http.StatusCreated {
		t.Fatalf("generate: %d %s", status, body)
	}
	status, body := doJSON(t, "POST", ts.URL+"/v1/solve",
		`{"graph":"g","algo":"cbasnd","request":{"k":4,"samples":20,"seed":9}}`)
	if status != http.StatusOK {
		t.Fatalf("solve without region cache: %d %s", status, body)
	}
}

// TestConcurrentServingHTTP is the race-enabled serving test: many
// simultaneous /v1/solve and /v1/solve/batch requests against one graph,
// every 200 response compared bit-for-bit against the sequential
// reference, while the target graph is evicted mid-flight (in-flight
// solves hold their own references; late requests may 404 but nothing may
// panic or diverge).
func TestConcurrentServingHTTP(t *testing.T) {
	ts := newTestServer(t)
	if status, body := doJSON(t, "POST", ts.URL+"/v1/graphs",
		`{"id":"g","generate":{"kind":"powerlaw","n":400,"avgdeg":8,"seed":5}}`); status != http.StatusCreated {
		t.Fatalf("generate: %d %s", status, body)
	}

	// Sequential references for every (algo, k, seed) the storm uses.
	spec := gen.Spec{Kind: "powerlaw", N: 400, AvgDeg: 8, Seed: 5}
	g, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		algo string
		k    int
		seed uint64
	}
	refs := map[key]core.Solution{}
	for _, algo := range []string{"cbas", "cbasnd", "dgreedy"} {
		for _, k := range []int{4, 8} {
			req := core.DefaultRequest(k)
			req.Samples = 20
			req.Seed = uint64(k)
			sv, err := solver.New(algo)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := sv.Solve(context.Background(), g, req)
			if err != nil {
				t.Fatal(err)
			}
			refs[key{algo, k, uint64(k)}] = rep.Best
		}
	}
	checkBest := func(algo string, k int, got core.Solution) error {
		want := refs[key{algo, k, uint64(k)}]
		if !got.Equal(want) || got.Willingness != want.Willingness {
			return fmt.Errorf("%s k=%d: concurrent %v != sequential %v", algo, k, got, want)
		}
		return nil
	}

	var ok200 atomic.Int64
	errCh := make(chan error, 64)
	var clients sync.WaitGroup
	for i := 0; i < 12; i++ {
		clients.Add(1)
		go func(i int) {
			defer clients.Done()
			algo := []string{"cbas", "cbasnd", "dgreedy"}[i%3]
			k := []int{4, 8}[i%2]
			if i%4 == 0 {
				// Batch request mixing both ks of one algo.
				status, body, err := tryJSON("POST", ts.URL+"/v1/solve/batch", fmt.Sprintf(
					`{"graph":"g","items":[
						{"algo":%[1]q,"request":{"k":4,"samples":20,"seed":4}},
						{"algo":%[1]q,"request":{"k":8,"samples":20,"seed":8}}
					]}`, algo))
				if err != nil {
					errCh <- err
					return
				}
				if status == http.StatusNotFound {
					return // evicted before this batch started
				}
				if status != http.StatusOK {
					errCh <- fmt.Errorf("batch %s: %d %s", algo, status, body)
					return
				}
				var got struct {
					Items []struct {
						Status int          `json:"status"`
						Report *core.Report `json:"report"`
						Error  string       `json:"error"`
					} `json:"items"`
				}
				if err := json.Unmarshal(body, &got); err != nil {
					errCh <- err
					return
				}
				for j, item := range got.Items {
					if item.Status == http.StatusNotFound {
						continue
					}
					if item.Status != http.StatusOK || item.Report == nil {
						errCh <- fmt.Errorf("batch %s item %d: %+v", algo, j, item)
						return
					}
					if err := checkBest(algo, []int{4, 8}[j], item.Report.Best); err != nil {
						errCh <- err
						return
					}
					ok200.Add(1)
				}
				return
			}
			status, body, err := tryJSON("POST", ts.URL+"/v1/solve", fmt.Sprintf(
				`{"graph":"g","algo":%q,"request":{"k":%d,"samples":20,"seed":%d}}`, algo, k, k))
			if err != nil {
				errCh <- err
				return
			}
			if status == http.StatusNotFound {
				return
			}
			if status != http.StatusOK {
				errCh <- fmt.Errorf("solve %s k=%d: %d %s", algo, k, status, body)
				return
			}
			var got solveResponse
			if err := json.Unmarshal(body, &got); err != nil {
				errCh <- err
				return
			}
			if err := checkBest(algo, k, got.Report.Best); err != nil {
				errCh <- err
				return
			}
			ok200.Add(1)
		}(i)
	}
	clientsDone := make(chan struct{})
	go func() {
		clients.Wait()
		close(clientsDone)
	}()
	// Scrape /metrics continuously while the storm runs: rendering walks
	// every instrument the solves are concurrently updating, so this is the
	// -race proof that scraping never tears or blocks serving.
	var scrapes sync.WaitGroup
	scrapes.Add(1)
	go func() {
		defer scrapes.Done()
		for {
			select {
			case <-clientsDone:
				return
			default:
			}
			status, body, err := tryJSON("GET", ts.URL+"/metrics", "")
			if err != nil || status != http.StatusOK {
				errCh <- fmt.Errorf("metrics scrape: %d %v", status, err)
				return
			}
			if !strings.Contains(string(body), "waso_http_requests_total") {
				errCh <- fmt.Errorf("metrics scrape missing http family:\n%s", body)
				return
			}
		}
	}()
	// Churn other graphs and evict the target mid-flight.
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; i < 4; i++ {
			id := fmt.Sprintf("churn%d", i)
			status, body, err := tryJSON("POST", ts.URL+"/v1/graphs", fmt.Sprintf(
				`{"id":%q,"generate":{"kind":"er","n":60,"avgdeg":4,"seed":1}}`, id))
			if err != nil || status != http.StatusCreated {
				errCh <- fmt.Errorf("churn generate: %d %s %v", status, body, err)
				return
			}
			if status, _, err := tryJSON("DELETE", ts.URL+"/v1/graphs/"+id, ""); err != nil || status != http.StatusNoContent {
				errCh <- fmt.Errorf("churn evict %s failed: %d %v", id, status, err)
				return
			}
		}
		// Evict the target only after at least one solve completed, so the
		// "exercised nothing" guard below cannot flake on a slow runner
		// where the cheap churn requests outrun every solve — but stop
		// waiting once every client has finished, so a regression that
		// fails all clients surfaces their errors instead of hanging here.
	wait:
		for ok200.Load() == 0 {
			select {
			case <-clientsDone:
				break wait
			default:
				time.Sleep(time.Millisecond)
			}
		}
		if status, _, err := tryJSON("DELETE", ts.URL+"/v1/graphs/g", ""); err != nil || status != http.StatusNoContent {
			errCh <- fmt.Errorf("mid-flight evict of g failed: %d %v", status, err)
		}
	}()
	<-clientsDone
	scrapes.Wait()
	churn.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if ok200.Load() == 0 {
		t.Error("no request completed before eviction — the test exercised nothing")
	}
}
