package admit

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"waso/internal/metrics"
)

// fakeSignals is a hand-cranked signal source: tests set the queue depths
// and feed observations into the wait histogram directly.
type fakeSignals struct {
	mu          sync.Mutex
	total, bulk int
	wait        *metrics.Histogram
}

func newFakeSignals() *fakeSignals {
	return &fakeSignals{wait: metrics.NewHistogram(metrics.DefLatencyBuckets)}
}

func (f *fakeSignals) set(total, bulk int) {
	f.mu.Lock()
	f.total, f.bulk = total, bulk
	f.mu.Unlock()
}

func (f *fakeSignals) signals() Signals {
	return Signals{
		QueueDepth: func() (int, int) {
			f.mu.Lock()
			defer f.mu.Unlock()
			return f.total, f.bulk
		},
		QueueWait: func() metrics.HistogramSnapshot { return f.wait.Snapshot() },
	}
}

// TestZeroConfigAdmitsEverything: the zero Config is a pass-through, so a
// controller can always be constructed (metrics registration) without
// imposing limits.
func TestZeroConfigAdmitsEverything(t *testing.T) {
	c := New(Config{}, Signals{})
	for i := 0; i < 100; i++ {
		d, release := c.Admit("client", i%2 == 0)
		if !d.Admit || d.Degraded {
			t.Fatalf("zero-config Admit #%d = %+v", i, d)
		}
		release()
	}
	st := c.Snapshot()
	if st.Accepted != 100 || st.ShedTotal != 0 || st.Clients != 0 {
		t.Errorf("stats after churn: %+v", st)
	}
}

// TestQueueCap: interactive sheds at MaxQueue, bulk already at
// bulkQueueFrac (0.8) of it, and the degrade band from degradeFrac (0.5)
// of a lane's cap admits with clamped budgets.
func TestQueueCap(t *testing.T) {
	sig := newFakeSignals()
	c := New(Config{MaxQueue: 100, Degrade: true, DegradeSamples: 50, DegradeStarts: 1}, sig.signals())

	cases := []struct {
		name        string
		total, bulk int
		isBulk      bool
		admit       bool
		degraded    bool
		reason      string
	}{
		{"idle interactive", 0, 0, false, true, false, ""},
		{"idle bulk", 0, 0, true, true, false, ""},
		{"interactive below band", 49, 0, false, true, false, ""},
		{"interactive in degrade band", 50, 0, false, true, true, ""},
		{"interactive at cap", 100, 0, false, false, false, ReasonQueue},
		{"bulk at bulk cap", 90, 80, true, false, false, ReasonQueue},
		{"bulk below bulk cap but interactive headroom", 90, 79, true, true, true, ""},
		{"interactive survives bulk flood", 99, 80, false, true, true, ""},
		{"bulk in its degrade band", 45, 40, true, true, true, ""},
	}
	for _, tc := range cases {
		sig.set(tc.total, tc.bulk)
		d, release := c.Admit("x", tc.isBulk)
		if d.Admit != tc.admit || d.Degraded != tc.degraded || d.Reason != tc.reason {
			t.Errorf("%s: got %+v", tc.name, d)
		}
		if d.Admit {
			if release == nil {
				t.Fatalf("%s: admitted without release", tc.name)
			}
			release()
		} else {
			if release != nil {
				t.Errorf("%s: shed with non-nil release", tc.name)
			}
			if d.RetryAfter <= 0 {
				t.Errorf("%s: shed without RetryAfter hint", tc.name)
			}
		}
		if d.Degraded && (d.SamplesLimit != 50 || d.StartsLimit != 1) {
			t.Errorf("%s: degraded budgets = (%d, %d)", tc.name, d.SamplesLimit, d.StartsLimit)
		}
	}
	if st := c.Snapshot(); st.Shed[ReasonQueue] != 2 {
		t.Errorf("queue sheds = %d, want 2", st.Shed[ReasonQueue])
	}
}

// TestLatencyHysteresis: the p99 latch engages above P99Limit (a p99 equal
// to the limit does not engage it), stays latched while the p99 sits
// between the resume floor (resumeFrac of the limit) and the limit, and
// releases only at or below the floor.
func TestLatencyHysteresis(t *testing.T) {
	sig := newFakeSignals()
	now := time.Unix(0, 0)
	cfg := Config{
		P99Limit: 80 * time.Millisecond, // resume floor 40ms
		Window:   time.Second,
		Now:      func() time.Time { return now },
	}
	c := New(cfg, sig.signals())

	admit := func() Decision {
		d, release := c.Admit("x", false)
		if release != nil {
			release()
		}
		return d
	}

	// First window: prime the baseline snapshot (no verdict yet).
	if d := admit(); !d.Admit {
		t.Fatalf("priming admit shed: %+v", d)
	}

	// Observations arrive with a bad p99; after the window rotates the
	// latch engages.
	for i := 0; i < 100; i++ {
		sig.wait.Observe(0.5)
	}
	now = now.Add(2 * time.Second)
	if d := admit(); d.Admit || d.Reason != ReasonLatency {
		t.Fatalf("latch did not engage: %+v", d)
	}
	if st := c.Snapshot(); !st.Shedding || st.P99 < 400*time.Millisecond {
		t.Fatalf("snapshot after latch: %+v", st)
	}

	// window observes slow waits of 40ms among fast ones of 1ms; with c
	// slow ones of 100, the interpolated p99 is 25ms + 25ms·(c−1)/c.
	window := func(slow int) {
		for i := 0; i < 100; i++ {
			if i < slow {
				sig.wait.Observe(0.04)
			} else {
				sig.wait.Observe(0.001)
			}
		}
		now = now.Add(2 * time.Second)
	}

	// In the hysteresis band, between the 40ms floor and the 80ms limit:
	// still latched, at p99 ≈ 49.75ms and just above the floor at 43.75ms.
	for _, slow := range []int{100, 4} {
		window(slow)
		if d := admit(); d.Admit {
			t.Fatalf("latch released in the hysteresis band (p99 %v)", c.Snapshot().P99)
		}
	}

	// Just under the floor (p99 = 37.5ms): the latch releases.
	window(2)
	if d := admit(); !d.Admit {
		t.Fatalf("latch did not release under the floor (p99 %v): %+v", c.Snapshot().P99, d)
	}

	// An idle window (no observations at all) also releases: nothing
	// waited, so nothing is slow.
	for i := 0; i < 100; i++ {
		sig.wait.Observe(0.5)
	}
	now = now.Add(2 * time.Second)
	if d := admit(); d.Admit {
		t.Fatal("latch did not re-engage")
	}
	now = now.Add(2 * time.Second)
	if d := admit(); !d.Admit {
		t.Fatal("idle window did not release the latch")
	}

	// A window whose p99 equals the limit exactly. Observations past the
	// last bucket bound (60s) land in the overflow bucket, for which
	// Percentile reports that bound, so the window's p99 reads exactly 60s.
	atLimit := newFakeSignals()
	c = New(Config{
		P99Limit: 60 * time.Second,
		Window:   time.Second,
		Now:      func() time.Time { return now },
	}, atLimit.signals())
	if d := admit(); !d.Admit {
		t.Fatalf("priming admit shed: %+v", d)
	}
	for i := 0; i < 100; i++ {
		atLimit.wait.Observe(120)
	}
	now = now.Add(2 * time.Second)
	if d := admit(); !d.Admit {
		t.Fatalf("p99 equal to P99Limit shed: %+v", d)
	}
	if st := c.Snapshot(); st.Shedding || st.P99 != 60*time.Second {
		t.Fatalf("snapshot at the limit: %+v, want P99 60s and no shedding", st)
	}
}

// TestLatencyDegradeBeforeShed: with Degrade on, a latched latch degrades
// interactive work but still sheds bulk.
func TestLatencyDegradeBeforeShed(t *testing.T) {
	sig := newFakeSignals()
	now := time.Unix(0, 0)
	c := New(Config{
		P99Limit: 50 * time.Millisecond, Window: time.Second, Degrade: true,
		DegradeSamples: 64, Now: func() time.Time { return now },
	}, sig.signals())

	if d, r := c.Admit("x", false); !d.Admit {
		t.Fatalf("prime: %+v", d)
	} else {
		r()
	}
	for i := 0; i < 100; i++ {
		sig.wait.Observe(1.0)
	}
	now = now.Add(2 * time.Second)

	d, release := c.Admit("x", false)
	if !d.Admit || !d.Degraded || d.SamplesLimit != 64 {
		t.Errorf("interactive under latency pressure: %+v", d)
	}
	if release != nil {
		release()
	}
	if d, _ := c.Admit("x", true); d.Admit || d.Reason != ReasonLatency {
		t.Errorf("bulk under latency pressure: %+v", d)
	}
}

// TestClientQuota: the per-client cap binds per identity, releases restore
// slots, and distinct clients do not interfere.
func TestClientQuota(t *testing.T) {
	c := New(Config{ClientMax: 2}, Signals{})

	var releases []func()
	for i := 0; i < 2; i++ {
		d, r := c.Admit("alice", false)
		if !d.Admit {
			t.Fatalf("alice admit #%d: %+v", i, d)
		}
		releases = append(releases, r)
	}
	if d, _ := c.Admit("alice", false); d.Admit || d.Reason != ReasonQuota {
		t.Errorf("alice over quota: %+v", d)
	}
	if d, r := c.Admit("bob", false); !d.Admit {
		t.Errorf("bob blocked by alice's quota: %+v", d)
	} else {
		r()
	}
	releases[0]()
	releases[0]() // double release is a no-op, not a double free
	if d, _ := c.Admit("alice", false); !d.Admit {
		t.Errorf("alice after release: %+v", d)
	}
	if d, _ := c.Admit("alice", false); d.Admit {
		t.Error("double release freed two slots")
	}
}

// TestDrain: StartDrain rejects everything with ReasonDrain and is
// idempotent.
func TestDrain(t *testing.T) {
	c := New(Config{}, Signals{})
	if c.Draining() {
		t.Fatal("fresh controller reports draining")
	}
	c.StartDrain()
	c.StartDrain()
	if !c.Draining() {
		t.Fatal("Draining() false after StartDrain")
	}
	if d, release := c.Admit("x", false); d.Admit || d.Reason != ReasonDrain || release != nil {
		t.Errorf("admit during drain: %+v", d)
	}
	if st := c.Snapshot(); !st.Draining || st.Shed[ReasonDrain] != 1 {
		t.Errorf("drain stats: %+v", st)
	}
}

// TestQuotaChurnRace: clients appear and disappear under heavy concurrency,
// with releases riding ctx cancellation paths, double releases mixed in and
// Snapshot readers racing the whole time. Accounting must balance to zero
// with no leaked client entries. Run with -race.
func TestQuotaChurnRace(t *testing.T) {
	c := New(Config{ClientMax: 3}, Signals{})
	clients := []string{"a", "b", "c", "d", "e", "f", "g", "h"}

	var wg, readers sync.WaitGroup
	stop := make(chan struct{})
	// Snapshot readers race the churn.
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					st := c.Snapshot()
					if st.Clients > len(clients) {
						t.Errorf("Clients = %d > %d distinct identities", st.Clients, len(clients))
						return
					}
				}
			}
		}()
	}
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 500; i++ {
				client := clients[rng.Intn(len(clients))]
				d, release := c.Admit(client, rng.Intn(2) == 0)
				if !d.Admit {
					if d.Reason != ReasonQuota {
						t.Errorf("unexpected shed reason %q", d.Reason)
						return
					}
					continue
				}
				// Model a solve whose release rides context cancellation:
				// the release must fire on every outcome.
				ctx, cancel := context.WithCancel(context.Background())
				done := make(chan struct{})
				go func() {
					<-ctx.Done()
					release()
					if rng.Intn(4) == 0 {
						release() // stray double release must stay a no-op
					}
					close(done)
				}()
				cancel()
				<-done
			}
		}(int64(w))
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	st := c.Snapshot()
	if st.Clients != 0 {
		t.Errorf("leaked %d client entries after full churn", st.Clients)
	}
	if st.Accepted == 0 {
		t.Error("churn admitted nothing — test exercised no accounting")
	}
}

// TestInflightCap: the global work-in-system cap sheds the N+1th
// concurrent admission regardless of client identity, releases restore
// capacity, and double releases do not free phantom slots.
func TestInflightCap(t *testing.T) {
	c := New(Config{MaxInflight: 2}, Signals{})

	d1, r1 := c.Admit("a", false)
	d2, r2 := c.Admit("b", true)
	if !d1.Admit || !d2.Admit {
		t.Fatalf("first two admissions: %+v %+v", d1, d2)
	}
	if st := c.Snapshot(); st.Inflight != 2 {
		t.Fatalf("Inflight = %d, want 2", st.Inflight)
	}
	d3, r3 := c.Admit("c", false)
	if d3.Admit || d3.Reason != ReasonInflight || r3 != nil {
		t.Fatalf("third admission = %+v, want shed(inflight)", d3)
	}
	if d3.RetryAfter <= 0 {
		t.Error("inflight shed without RetryAfter hint")
	}

	r1()
	r1() // double release must not mint a free slot
	if st := c.Snapshot(); st.Inflight != 1 {
		t.Fatalf("Inflight after release = %d, want 1", st.Inflight)
	}
	if d, r := c.Admit("d", false); !d.Admit {
		t.Fatalf("admission after release: %+v", d)
	} else {
		r()
	}
	r2()
	st := c.Snapshot()
	if st.Inflight != 0 || st.Shed[ReasonInflight] != 1 {
		t.Errorf("final stats: %+v", st)
	}
}
