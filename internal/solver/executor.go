package solver

import (
	"context"
	"runtime"
	"sync"
	"time"

	"waso/internal/metrics"
)

// Lane is the scheduling priority class of one solve on the shared
// Executor. Interactive solves (single /v1/solve requests, a human waiting
// on the answer) drain ahead of bulk work (batch items, replays, offline
// sweeps) under weighted round-robin, so a saturated bulk backlog can slow
// interactive solves but never starve them — and vice versa: bulk always
// keeps a guaranteed share, so a flood of interactive traffic cannot
// silently stall a batch forever either.
//
// Lanes are scheduling only. Like Workers, they never affect Report.Best.
type Lane int

const (
	// LaneInteractive is the default lane: latency-sensitive solves.
	LaneInteractive Lane = iota
	// LaneBulk is the throughput lane: batch items and offline work.
	LaneBulk
	// NumLanes bounds the lane enum (array sizing).
	NumLanes
)

// String returns the metric-label rendering of the lane.
func (l Lane) String() string {
	if l == LaneBulk {
		return "bulk"
	}
	return "interactive"
}

// interactiveBurst is the weighted-round-robin ratio: when both lanes have
// runnable tasks, interactive gets this many picks for every bulk pick.
// When either lane is idle the other takes every slot (work-conserving).
const interactiveBurst = 4

// laneCtxKey carries a Lane through a context.
type laneCtxKey struct{}

// WithLane returns a context carrying the scheduling lane for solves
// dispatched on it. The service layer tags Solve contexts interactive and
// SolveBatch contexts bulk; a context without a lane is interactive.
func WithLane(ctx context.Context, l Lane) context.Context {
	return context.WithValue(ctx, laneCtxKey{}, l)
}

// LaneFor returns the context's lane, defaulting to LaneInteractive.
func LaneFor(ctx context.Context) Lane {
	if l, ok := ctx.Value(laneCtxKey{}).(Lane); ok && l >= 0 && l < NumLanes {
		return l
	}
	return LaneInteractive
}

// Executor is a bounded solve scheduler and the only one: every Solve runs
// its (start, sample-chunk) tasks on an Executor — the one its context
// carries (WithExecutor), else a package default sized to GOMAXPROCS,
// started on first use and never closed. One pool serves any number of
// concurrent solves, so total solver goroutines stay at the pool size no
// matter how many solves are in flight.
//
// Scheduling is fair within a lane and weighted across lanes: each solve
// submits its task queue as one job on its lane, idle workers drain the
// active jobs of a lane round-robin one task at a time, and the
// interactive lane gets interactiveBurst picks for every bulk pick when
// both lanes are backlogged — so a burst of small interactive queries
// keeps making progress beside a saturated batch backlog, and bulk work
// retains a guaranteed share under interactive floods. A positive
// Request.Workers additionally caps one solve's parallelism on the pool.
//
// Jobs carry their solve's deadline: a job whose deadline has already
// passed when a worker would dequeue its next task is dropped — its
// remaining tasks are counted (per-lane TasksExpired), never executed — so
// a queue full of work whose clients have already given up melts away in
// O(queue) bookkeeping instead of being solved for nobody.
//
// Cancellation is per solve: tasks of a cancelled job observe their own
// context and complete as no-ops, so one client disconnecting never stalls
// the pool or other solves. Determinism is untouched — the executor only
// changes which goroutine runs a task and when, and Report.Best is
// schedule-independent by construction (see the package comment).
//
// The zero Executor is not usable; construct with NewExecutor. Close is
// idempotent and safe to race with in-flight run submissions: it drains
// queued work and stops the workers, and jobs submitted to a closed
// Executor run on the package default, so library callers can shut one
// down without tearing down solving.
type Executor struct {
	workers int

	mu     sync.Mutex
	cond   *sync.Cond
	jobs   [NumLanes][]*execJob // active jobs per lane, drained round-robin
	cursor [NumLanes]int        // next round-robin pick position per lane
	credit int                  // interactive picks left before a backlogged bulk lane gets one
	closed bool
	wg     sync.WaitGroup

	// Telemetry, guarded by mu and read as one consistent snapshot by
	// Stats. queued/inFlight are maintained incrementally by submit, pick,
	// finish and expiry so a Stats call is O(1) regardless of active jobs.
	lanes [NumLanes]laneCounters

	// queueWait records, per job, how long a solve waited between
	// submission and its first task starting — the backlog signal
	// admission control keys on (a deep queue with low wait is a burst; a
	// rising wait is saturation).
	queueWait *metrics.Histogram
}

// laneCounters is the per-lane slice of the executor telemetry.
type laneCounters struct {
	jobsTotal    uint64
	tasksTotal   uint64
	tasksExpired uint64 // tasks dropped at dequeue because their job's deadline had passed
	queued       int    // tasks accepted but not yet handed to a worker
	inFlight     int    // tasks currently executing
}

// execJob is one solve's task queue as the executor sees it: n indexed
// tasks handed out in order, at most maxParallel running at once. The
// solve's context lives in the task fn's closure (the drain contract), so
// the job itself holds no reference to it — only its lane and deadline.
type execJob struct {
	fn          func(idx int)
	lane        Lane
	n           int
	next        int // next task index to hand out
	running     int // tasks currently executing
	maxParallel int
	done        chan struct{}
	deadline    time.Time // zero = none; checked at dequeue, not submit
	expired     int       // tasks dropped because the deadline passed
	submitted   time.Time // when run enqueued the job (queue-wait telemetry)
	started     bool      // first task handed out (queue wait recorded once)
}

// NewExecutor starts an executor with the given worker count (≤ 0 means
// GOMAXPROCS). The workers live until Close.
func NewExecutor(workers int) *Executor {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Executor{workers: workers, queueWait: metrics.NewHistogram(metrics.DefLatencyBuckets)}
	e.cond = sync.NewCond(&e.mu)
	e.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go e.worker()
	}
	return e
}

// Workers returns the size of the shared pool.
func (e *Executor) Workers() int { return e.workers }

// LaneStats is one lane's slice of the executor snapshot.
type LaneStats struct {
	Jobs          uint64 // solves accepted on this lane since start
	Tasks         uint64 // tasks accepted on this lane since start
	TasksExpired  uint64 // tasks dropped at dequeue (job deadline already passed)
	JobsActive    int    // solves with unfinished tasks
	TasksQueued   int    // tasks waiting for a worker
	TasksInFlight int    // tasks executing right now
}

// ExecutorStats is one consistent snapshot of executor telemetry: the
// accepted totals plus the instantaneous backlog, whole-pool and per lane.
// TasksQueued is the admission-control signal — tasks accepted but not yet
// running — and TasksInFlight how many workers are busy right now.
type ExecutorStats struct {
	Workers       int    // size of the shared pool
	Jobs          uint64 // solves accepted since start (all lanes)
	Tasks         uint64 // (start, sample-chunk) tasks accepted since start
	TasksExpired  uint64 // tasks dropped at dequeue because their deadline had passed
	JobsActive    int    // solves with unfinished tasks
	TasksQueued   int    // tasks waiting for a worker
	TasksInFlight int    // tasks executing right now

	Lanes [NumLanes]LaneStats // per-lane breakdown; index with Lane values
}

// Stats returns one consistent snapshot of the executor's counters and
// backlog, taken under the scheduler lock — every field describes the same
// instant, unlike reading independent atomics, which could observe a task
// as both queued and in flight. Serving telemetry, the /metrics executor
// family, the admission controller and the hook tests use it.
func (e *Executor) Stats() ExecutorStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := ExecutorStats{Workers: e.workers}
	for l := Lane(0); l < NumLanes; l++ {
		c := e.lanes[l]
		ls := LaneStats{
			Jobs:          c.jobsTotal,
			Tasks:         c.tasksTotal,
			TasksExpired:  c.tasksExpired,
			JobsActive:    len(e.jobs[l]),
			TasksQueued:   c.queued,
			TasksInFlight: c.inFlight,
		}
		st.Lanes[l] = ls
		st.Jobs += ls.Jobs
		st.Tasks += ls.Tasks
		st.TasksExpired += ls.TasksExpired
		st.JobsActive += ls.JobsActive
		st.TasksQueued += ls.TasksQueued
		st.TasksInFlight += ls.TasksInFlight
	}
	return st
}

// QueueWait returns the executor's per-job queue-wait histogram (seconds
// between a solve's submission and its first task starting). The serving
// layer registers it on /metrics; Snapshot().Percentile gives the p99 an
// admission controller gates on.
func (e *Executor) QueueWait() *metrics.Histogram { return e.queueWait }

// Close drains all queued jobs and stops the workers. Idempotent and safe
// to call concurrently, including racing run submissions: a run that wins
// the race is drained before the workers exit; one that loses runs on the
// package default executor. A closed Executor's Stats stop moving.
func (e *Executor) Close() {
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		e.cond.Broadcast()
	}
	e.mu.Unlock()
	e.wg.Wait()
}

// run executes n indexed tasks on the pool, at most maxParallel at a time
// (≤ 0 means no cap), and returns once every task has completed or been
// dropped. fn must observe its solve's context itself: tasks of a
// cancelled solve are still invoked, as fast no-ops. deadline (zero =
// none) lets the scheduler drop the job's remaining tasks at dequeue once
// the solve's budget is already exhausted; expired reports that at least
// one task was dropped for it. A closed executor hands the job to the
// package default.
func (e *Executor) run(lane Lane, deadline time.Time, maxParallel, n int, fn func(idx int)) (expired bool) {
	if n == 0 {
		return false
	}
	if maxParallel <= 0 {
		maxParallel = n
	}
	if lane < 0 || lane >= NumLanes {
		lane = LaneBulk
	}
	//lint:allow determinism(queue-wait telemetry timestamp; never reaches task scheduling or results)
	submitted := time.Now()
	j := &execJob{fn: fn, lane: lane, n: n, maxParallel: maxParallel,
		done: make(chan struct{}), deadline: deadline, submitted: submitted}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return defaultExecutor().run(lane, deadline, maxParallel, n, fn)
	}
	e.jobs[lane] = append(e.jobs[lane], j)
	e.lanes[lane].jobsTotal++
	e.lanes[lane].tasksTotal += uint64(n)
	e.lanes[lane].queued += n
	e.cond.Broadcast()
	e.mu.Unlock()
	<-j.done
	// done is closed under e.mu after the final mutation of j, so this read
	// is ordered after every scheduler write to the job.
	return j.expired > 0
}

// runnableLocked returns the next runnable job of the lane in round-robin
// order, dropping deadline-expired jobs it scans past. now is the dequeue
// timestamp (shared across lanes within one pick). Callers hold e.mu.
func (e *Executor) runnableLocked(lane Lane, now time.Time) *execJob {
	for i := 0; i < len(e.jobs[lane]); i++ {
		at := (e.cursor[lane] + i) % len(e.jobs[lane])
		j := e.jobs[lane][at]
		if j.next < j.n && !j.deadline.IsZero() && now.After(j.deadline) {
			// The solve's budget is already exhausted: drop the remaining
			// tasks (counted, not solved). Tasks already running finish
			// normally and retire the job through finishLocked.
			dropped := j.n - j.next
			j.expired += dropped
			j.next = j.n
			e.lanes[lane].queued -= dropped
			e.lanes[lane].tasksExpired += uint64(dropped)
			if j.running == 0 {
				e.retireLocked(j)
				i-- // the slice shrank; rescan this position
				if len(e.jobs[lane]) == 0 {
					return nil
				}
				continue
			}
		}
		if j.next < j.n && j.running < j.maxParallel {
			e.cursor[lane] = at // takeLocked advances past this job
			return j
		}
	}
	return nil
}

// takeLocked hands out the chosen job's next task. Callers hold e.mu and
// must have obtained j from runnableLocked (which parked the lane cursor on
// it).
func (e *Executor) takeLocked(j *execJob) int {
	idx := j.next
	j.next++
	j.running++
	e.lanes[j.lane].queued--
	e.lanes[j.lane].inFlight++
	if !j.started {
		j.started = true
		//lint:allow determinism(queue-wait telemetry timestamp; never reaches task scheduling or results)
		e.queueWait.Observe(time.Since(j.submitted).Seconds())
	}
	e.cursor[j.lane] = (e.cursor[j.lane] + 1) % len(e.jobs[j.lane])
	return idx
}

// pickLocked chooses the next task under weighted round-robin across
// lanes: when both lanes have runnable work, interactive gets
// interactiveBurst picks per bulk pick; an idle lane cedes every slot to
// the other. Callers hold e.mu.
func (e *Executor) pickLocked() (*execJob, int) {
	//lint:allow determinism(dequeue timestamp for deadline-expiry drops; scheduling only, results are schedule-independent)
	now := time.Now()
	ij := e.runnableLocked(LaneInteractive, now)
	bj := e.runnableLocked(LaneBulk, now)
	switch {
	case ij != nil && (bj == nil || e.credit > 0):
		if bj != nil {
			e.credit--
		}
		return ij, e.takeLocked(ij)
	case bj != nil:
		e.credit = interactiveBurst
		return bj, e.takeLocked(bj)
	}
	return nil, 0
}

// retireLocked removes a finished (or fully dropped) job from its lane and
// wakes its submitter. Callers hold e.mu.
func (e *Executor) retireLocked(j *execJob) {
	lane := j.lane
	for at, other := range e.jobs[lane] {
		if other == j {
			e.jobs[lane] = append(e.jobs[lane][:at], e.jobs[lane][at+1:]...)
			if len(e.jobs[lane]) > 0 {
				e.cursor[lane] %= len(e.jobs[lane])
			} else {
				e.cursor[lane] = 0
			}
			break
		}
	}
	close(j.done)
}

// finishLocked records one completed task and retires the job when its last
// task is done. Callers hold e.mu.
func (e *Executor) finishLocked(j *execJob) {
	j.running--
	e.lanes[j.lane].inFlight--
	if j.next >= j.n && j.running == 0 {
		e.retireLocked(j)
		return
	}
	if j.next < j.n {
		// A parallelism-capped job just freed a slot; one idle worker can
		// take the next task.
		e.cond.Signal()
	}
}

// worker is the shared pool loop: pick a task fairly, run it, repeat. Exits
// when the executor is closed and no runnable task remains — queued jobs are
// drained before shutdown completes.
func (e *Executor) worker() {
	defer e.wg.Done()
	for {
		e.mu.Lock()
		j, idx := e.pickLocked()
		for j == nil && !e.closed {
			e.cond.Wait()
			j, idx = e.pickLocked()
		}
		if j == nil { // closed, nothing runnable
			e.mu.Unlock()
			return
		}
		e.mu.Unlock()
		j.fn(idx)
		e.mu.Lock()
		e.finishLocked(j)
		e.mu.Unlock()
	}
}

// executorCtxKey carries an *Executor through a context.
type executorCtxKey struct{}

// WithExecutor returns a context carrying e. A Solve whose context carries
// an executor schedules its tasks there instead of on the package default
// — the mechanism the service layer uses to own its pool's size, lanes and
// telemetry.
func WithExecutor(ctx context.Context, e *Executor) context.Context {
	return context.WithValue(ctx, executorCtxKey{}, e)
}

// defaultExecutor is the pool of every solve whose context carries no
// executor: GOMAXPROCS workers at first use, never closed.
var defaultExecutor = sync.OnceValue(func() *Executor { return NewExecutor(0) })

// executorFor returns the context's executor, else the package default.
func executorFor(ctx context.Context) *Executor {
	if e, ok := ctx.Value(executorCtxKey{}).(*Executor); ok && e != nil {
		return e
	}
	return defaultExecutor()
}
