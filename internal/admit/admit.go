// Package admit is the serving stack's admission controller: the layer
// that decides, before a solve touches the executor, whether the process
// has the headroom to take it. It turns the signals the metrics layer
// already collects — executor queue depth and the queue-wait p99 — into
// accept / degrade / shed decisions, enforces per-client concurrency
// quotas, and carries the drain flag that flips the server read-only
// during shutdown.
//
// The controller deliberately knows nothing about HTTP or the solver: the
// service layer feeds it Signals (callbacks into the executor's telemetry)
// and translates Decisions into 429/503 responses and degraded solve
// budgets. That keeps the policy testable with synthetic signals and keeps
// the dependency direction clean: admit sits beside the metrics substrate,
// below internal/service, and imports neither solver nor net/http.
//
// Shedding policy, in evaluation order:
//
//  1. Drain: once StartDrain is called every request is rejected with
//     ReasonDrain; in-flight work is unaffected.
//  2. Queue depth: a hard cap on executor backlog. Bulk work sheds at
//     bulkQueueFrac of the cap so interactive traffic keeps headroom when
//     batch load is the source of the pressure; in the band between
//     degradeFrac and the lane's cap, degrade-mode requests are admitted
//     with clamped budgets instead of shed.
//  3. Latency: the queue-wait p99 over a sliding window, latched with
//     hysteresis — shedding starts above P99Limit and stops only at
//     resumeFrac of it, so the controller does not flap around the
//     threshold.
//     While latched, bulk is shed and interactive is degraded (or shed
//     when degrade mode is off).
//  4. In-flight: a hard cap on concurrently admitted solves across all
//     clients. The executor queue cap bounds backlog the executor has
//     accepted, but on a saturated machine requests also queue upstream
//     of the executor (handler goroutines waiting for CPU); the in-flight
//     cap bounds total work-in-system, which is what actually bounds the
//     latency of admitted requests under open-loop overload.
//  5. Quota: per-client concurrent admissions, so one client cannot
//     occupy the whole pool however fast it submits.
package admit

import (
	"sync"
	"time"

	"waso/internal/metrics"
)

// Reasons a request is shed. Decision.Reason carries one of these; they
// double as the `decision` metric label values (plus "accepted" and
// "degraded" for admitted work).
const (
	ReasonQueue    = "queue"    // executor backlog at the lane's cap
	ReasonLatency  = "latency"  // queue-wait p99 above limit (latched)
	ReasonInflight = "inflight" // total admitted solves at MaxInflight
	ReasonQuota    = "quota"    // per-client concurrency quota exhausted
	ReasonDrain    = "drain"    // server is draining for shutdown

	// ReasonStorage is not a controller decision: the serving layer uses it
	// when the durable store has degraded to read-only and writes must be
	// refused. It shares the OverloadError surface (503 + Retry-After) so
	// clients back off the same way they do for a drain.
	ReasonStorage = "storage"
)

// The fixed fractions of the shedding policy.
const (
	// bulkQueueFrac is the fraction of MaxQueue at which bulk-priority
	// work sheds: bulk gives way first, preserving interactive headroom.
	bulkQueueFrac = 0.8
	// degradeFrac is the fraction of a lane's queue cap from which
	// degrade-mode requests run with clamped budgets.
	degradeFrac = 0.5
	// resumeFrac is the hysteresis floor as a fraction of P99Limit:
	// latched latency shedding stops once the p99 falls to it.
	resumeFrac = 0.5
)

// Config are the admission thresholds. The zero value admits everything —
// a controller is always constructed, so the metric families always exist;
// overload protection is opt-in per knob.
type Config struct {
	// MaxQueue is the hard cap on executor queue depth (tasks accepted but
	// not yet running). 0 disables queue-based shedding.
	MaxQueue int

	// P99Limit sheds on the sliding-window queue-wait p99 exceeding this
	// (0 disables latency shedding); shedding then stops only once the p99
	// falls to resumeFrac of it. Window is the sliding-window width
	// (default 10s).
	P99Limit time.Duration
	Window   time.Duration

	// MaxInflight caps concurrently admitted solves across all clients
	// (0 = unlimited). The queue cap bounds executor backlog; this bounds
	// total work-in-system, the quantity that determines how long an
	// admitted request waits when the machine itself is saturated.
	MaxInflight int

	// ClientMax caps concurrent admitted solves per client identity
	// (0 = unlimited).
	ClientMax int

	// Degrade turns on degrade-before-shed: under pressure (the degrade
	// band, or latched latency shedding for interactive work) requests are
	// admitted with Decision.Degraded set, and the service clamps their
	// sample/start budgets instead of rejecting them.
	Degrade bool
	// DegradeSamples and DegradeStarts are the clamped budgets applied to
	// degraded solves (defaults 200 and 1). A request already below the
	// clamp keeps its own value.
	DegradeSamples int
	DegradeStarts  int

	// RetryAfter is the base backoff hint attached to shed decisions
	// (default 1s). The HTTP layer jitters it before emitting Retry-After.
	RetryAfter time.Duration

	// Now overrides the clock (tests). Nil means time.Now.
	Now func() time.Time
}

// Signals are the live inputs the controller reads at decision time, fed
// by the service layer from executor telemetry.
type Signals struct {
	// QueueDepth returns the executor backlog: total queued tasks and the
	// bulk lane's share.
	QueueDepth func() (total, bulk int)
	// QueueWait returns the cumulative queue-wait histogram snapshot; the
	// controller differences successive snapshots for the windowed p99.
	QueueWait func() metrics.HistogramSnapshot
}

// Decision is the controller's verdict on one request.
type Decision struct {
	// Admit: the request may proceed. When false, Reason says why and
	// RetryAfter carries the backoff hint.
	Admit bool
	// Degraded: admitted, but the service should clamp the solve budget
	// (SamplesLimit / StartsLimit) and annotate the report.
	Degraded bool
	// Reason is the shed reason ("" when admitted).
	Reason string
	// RetryAfter is the un-jittered backoff hint for shed work.
	RetryAfter time.Duration
	// SamplesLimit and StartsLimit are the degraded budgets (0 = no clamp).
	SamplesLimit int
	StartsLimit  int
}

// Stats is one snapshot of the controller's counters and state, the
// backing for the waso_admission_* metric families.
type Stats struct {
	Accepted  uint64            // admitted at full budget
	Degraded  uint64            // admitted with clamped budget
	Shed      map[string]uint64 // shed count by reason
	ShedTotal uint64
	Shedding  bool          // latency hysteresis currently latched
	P99       time.Duration // last windowed queue-wait p99
	Clients   int           // clients with at least one admitted solve in flight
	Inflight  int           // total admitted solves not yet released
	Draining  bool
}

// Controller applies Config against Signals. Safe for concurrent use.
type Controller struct {
	cfg Config
	sig Signals

	mu       sync.Mutex
	accepted uint64
	degraded uint64
	shed     map[string]uint64
	clients  map[string]int
	inflight int
	draining bool
	latched  bool // latency shedding active
	lastP99  time.Duration
	lastEval time.Time
	prevWait metrics.HistogramSnapshot
	haveWait bool
}

// New builds a controller. Defaults are applied here so a zero Config is a
// pure pass-through and partial configs behave sensibly.
func New(cfg Config, sig Signals) *Controller {
	if cfg.Window <= 0 {
		cfg.Window = 10 * time.Second
	}
	if cfg.DegradeSamples <= 0 {
		cfg.DegradeSamples = 200
	}
	if cfg.DegradeStarts <= 0 {
		cfg.DegradeStarts = 1
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Controller{
		cfg:     cfg,
		sig:     sig,
		shed:    make(map[string]uint64),
		clients: make(map[string]int),
	}
}

// Admit decides one request. client is the caller's identity (X-Client-ID
// or remote address; "" counts as one anonymous client), bulk whether the
// work is bulk-priority. On admission release is non-nil and MUST be called
// exactly once when the solve finishes (any outcome, including ctx
// cancellation) to return the client's quota slot; calling it more than
// once is a no-op.
func (c *Controller) Admit(client string, bulk bool) (Decision, func()) {
	c.mu.Lock()
	defer c.mu.Unlock()

	if c.draining {
		return c.shedLocked(ReasonDrain), nil
	}

	degrade := false

	// Queue-depth cap (and degrade band) per lane.
	if c.cfg.MaxQueue > 0 && c.sig.QueueDepth != nil {
		total, bulkQ := c.sig.QueueDepth()
		depth, limit := total, c.cfg.MaxQueue
		if bulk {
			// Bulk sheds on its own share at a fraction of the cap, so a
			// pure-bulk flood saturates at bulkQueueFrac and interactive
			// traffic still has room to be admitted.
			depth, limit = bulkQ, int(float64(c.cfg.MaxQueue)*bulkQueueFrac)
			if limit < 1 {
				limit = 1
			}
		}
		switch {
		case depth >= limit:
			return c.shedLocked(ReasonQueue), nil
		case c.cfg.Degrade && float64(depth) >= float64(limit)*degradeFrac:
			degrade = true
		}
	}

	// Latency hysteresis on the windowed queue-wait p99.
	if c.cfg.P99Limit > 0 && c.sig.QueueWait != nil {
		c.evalLatencyLocked()
		if c.latched {
			if bulk || !c.cfg.Degrade {
				return c.shedLocked(ReasonLatency), nil
			}
			degrade = true
		}
	}

	// Global work-in-system cap.
	if c.cfg.MaxInflight > 0 && c.inflight >= c.cfg.MaxInflight {
		return c.shedLocked(ReasonInflight), nil
	}

	// Per-client concurrency quota.
	if c.cfg.ClientMax > 0 && c.clients[client] >= c.cfg.ClientMax {
		return c.shedLocked(ReasonQuota), nil
	}
	c.clients[client]++
	c.inflight++

	released := false
	release := func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		if released {
			return
		}
		released = true
		c.inflight--
		if n := c.clients[client]; n <= 1 {
			delete(c.clients, client) // no residue for departed clients
		} else {
			c.clients[client] = n - 1
		}
	}

	d := Decision{Admit: true}
	if degrade {
		c.degraded++
		d.Degraded = true
		d.SamplesLimit = c.cfg.DegradeSamples
		d.StartsLimit = c.cfg.DegradeStarts
	} else {
		c.accepted++
	}
	return d, release
}

// shedLocked counts and builds one rejection. Callers hold c.mu.
func (c *Controller) shedLocked(reason string) Decision {
	c.shed[reason]++
	return Decision{Reason: reason, RetryAfter: c.cfg.RetryAfter}
}

// evalLatencyLocked rotates the sliding window when due and updates the
// hysteresis latch from the fresh p99. Callers hold c.mu.
func (c *Controller) evalLatencyLocked() {
	now := c.cfg.Now()
	if c.haveWait && now.Sub(c.lastEval) < c.cfg.Window {
		return
	}
	cur := c.sig.QueueWait()
	if c.haveWait {
		win := cur.Sub(c.prevWait)
		if win.Count > 0 {
			c.lastP99 = time.Duration(win.Percentile(99) * float64(time.Second))
		} else {
			c.lastP99 = 0 // idle window: nothing waited
		}
		switch {
		case c.lastP99 > c.cfg.P99Limit:
			c.latched = true
		case c.lastP99 <= time.Duration(float64(c.cfg.P99Limit)*resumeFrac):
			c.latched = false
		}
	}
	c.prevWait = cur
	c.haveWait = true
	c.lastEval = now
}

// StartDrain flips the controller into drain mode: every subsequent Admit
// is rejected with ReasonDrain. Idempotent; there is no undo — drain is the
// first step of shutdown.
func (c *Controller) StartDrain() {
	c.mu.Lock()
	c.draining = true
	c.mu.Unlock()
}

// Draining reports whether StartDrain has been called.
func (c *Controller) Draining() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.draining
}

// Snapshot returns the controller's counters and state as one consistent
// view — the backing read for the waso_admission_* metric families.
func (c *Controller) Snapshot() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	shed := make(map[string]uint64, len(c.shed))
	total := uint64(0)
	for r, n := range c.shed {
		shed[r] = n
		total += n
	}
	return Stats{
		Accepted:  c.accepted,
		Degraded:  c.degraded,
		Shed:      shed,
		ShedTotal: total,
		Shedding:  c.latched,
		P99:       c.lastP99,
		Clients:   len(c.clients),
		Inflight:  c.inflight,
		Draining:  c.draining,
	}
}
