package service

import (
	"context"
	"errors"
	"time"

	"waso/internal/metrics"
	"waso/internal/store"
)

// Observability: the service owns the process metrics registry and every
// instrument above the solver layer. Instruments observe outcomes only —
// they never touch a Report — so solving with metrics on is bit-identical
// to solving without (the tentpole's neutrality requirement). Families:
//
//	waso_solve_seconds{algo,objective}            dispatch-to-result latency histogram
//	waso_solve_errors_total{algo,objective,kind}  failures by class (invalid, timeout, canceled, other)
//	waso_solve_samples_total{algo}      random samples drawn (advisory, per Report)
//	waso_solve_pruned_total{algo}       samples abandoned by the upper bound
//	waso_solve_willingness{algo}        streaming moments of Best.Willingness
//	waso_solve_group_size{algo}         streaming moments of |Best.Nodes|
//	waso_solves_inflight                solves currently executing
//	waso_graphs_resident                resident graph count
//	waso_uptime_seconds                 seconds since service construction
//	waso_executor_*                     shared-pool totals and backlog (see Executor.Stats)
//	waso_region_cache_*_total           region-cache traffic, summed across graphs
//	waso_workspace_pool_*_total         workspace-pool traffic, summed across graphs
//
// Per-graph cache counters fold into cross-graph totals that survive
// eviction: Evict snapshots the dying entry's counters into
// Service.retired, so the rendered totals stay monotone (Prometheus
// counter semantics) across graph churn. Increments made by solves still
// in flight against an evicted graph are not folded — a bounded
// undercount, never a decrease.

// solveMetrics bundles the per-solve instruments solveEntry updates.
type solveMetrics struct {
	latency  *metrics.HistogramVec
	errors   *metrics.CounterVec
	samples  *metrics.CounterVec
	pruned   *metrics.CounterVec
	will     *metrics.MomentsVec
	group    *metrics.MomentsVec
	inflight *metrics.Gauge
}

// cacheTotals accumulates the per-graph cache and pool counters. The
// service keeps one instance for evicted (retired) graphs; scrapes add the
// resident entries on top.
type cacheTotals struct {
	regionHits, regionMisses, regionNegHits, regionEvictions uint64
	regionInvalidated                                        uint64
	poolGets, poolAllocs                                     uint64
}

// addEntry folds one graph entry's current counters into t, summing the
// region-cache traffic of every resident objective state.
func (t *cacheTotals) addEntry(e *entry) {
	t.addPool(e)
	e.objMu.Lock()
	defer e.objMu.Unlock()
	for _, os := range e.objs {
		if os.regions == nil {
			continue
		}
		rs := os.regions.Stats()
		t.regionHits += rs.Hits
		t.regionMisses += rs.Misses
		t.regionNegHits += rs.NegativeHits
		t.regionEvictions += rs.Evictions
		t.regionInvalidated += rs.Invalidated
	}
}

// addPool folds only the entry's workspace-pool counters — what Mutate
// retires when it rebuilds the pool for a mutated graph while the region
// cache's counters move into the clone.
func (t *cacheTotals) addPool(e *entry) {
	ps := e.pool.Stats()
	t.poolGets += ps.Gets
	t.poolAllocs += ps.Allocs
}

// cacheTotalsNow returns retired totals plus every resident entry's
// counters — the monotone cross-graph view the counter funcs render.
func (s *Service) cacheTotalsNow() cacheTotals {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t := s.retired
	for _, e := range s.graphs {
		t.addEntry(e)
	}
	return t
}

// registerMetrics builds every service-level family on s.reg. Called once
// from New; registration panics are programmer errors (duplicate names).
func (s *Service) registerMetrics() {
	reg := s.reg
	s.met = solveMetrics{
		latency: reg.NewHistogram("waso_solve_seconds",
			"Solve latency from dispatch to result, per algorithm and objective.",
			metrics.DefLatencyBuckets, "algo", "objective"),
		errors: reg.NewCounter("waso_solve_errors_total",
			"Failed solves by algorithm, objective and error class.", "algo", "objective", "kind"),
		samples: reg.NewCounter("waso_solve_samples_total",
			"Random samples drawn by completed solves (advisory).", "algo"),
		pruned: reg.NewCounter("waso_solve_pruned_total",
			"Samples abandoned by the incumbent upper bound (advisory).", "algo"),
		will: reg.NewMoments("waso_solve_willingness",
			"Best-solution willingness of completed solves.", "algo"),
		group: reg.NewMoments("waso_solve_group_size",
			"Best-solution group size of completed solves.", "algo"),
		inflight: reg.NewGauge("waso_solves_inflight",
			"Solves currently executing.").With(),
	}

	reg.GaugeFunc("waso_uptime_seconds",
		"Seconds since the service was constructed.",
		func() float64 { return time.Since(s.start).Seconds() })
	reg.GaugeFunc("waso_graphs_resident",
		"Graphs currently resident in the store.",
		func() float64 {
			s.mu.RLock()
			defer s.mu.RUnlock()
			return float64(len(s.graphs))
		})

	reg.CounterFunc("waso_executor_jobs_total",
		"Solve jobs accepted by the shared executor.",
		func() float64 { return float64(s.exec.Stats().Jobs) })
	reg.CounterFunc("waso_executor_tasks_total",
		"Sample-chunk tasks accepted by the shared executor.",
		func() float64 { return float64(s.exec.Stats().Tasks) })
	reg.GaugeFunc("waso_executor_jobs_active",
		"Solve jobs with unfinished tasks on the shared executor.",
		func() float64 { return float64(s.exec.Stats().JobsActive) })
	reg.GaugeFunc("waso_executor_queue_depth",
		"Tasks accepted but not yet running on the shared executor.",
		func() float64 { return float64(s.exec.Stats().TasksQueued) })
	reg.GaugeFunc("waso_executor_tasks_inflight",
		"Tasks executing right now on the shared executor.",
		func() float64 { return float64(s.exec.Stats().TasksInFlight) })
	reg.RegisterHistogram("waso_executor_queue_wait_seconds",
		"Per-job wait between submission and first task start.",
		s.exec.QueueWait())

	reg.CounterFunc("waso_region_cache_hits_total",
		"Region-cache hits across all graphs (including evicted).",
		func() float64 { return float64(s.cacheTotalsNow().regionHits) })
	reg.CounterFunc("waso_region_cache_misses_total",
		"Region-cache misses across all graphs (including evicted).",
		func() float64 { return float64(s.cacheTotalsNow().regionMisses) })
	reg.CounterFunc("waso_region_cache_negative_hits_total",
		"Region-cache hits that returned a cached negative.",
		func() float64 { return float64(s.cacheTotalsNow().regionNegHits) })
	reg.CounterFunc("waso_region_cache_evictions_total",
		"Region-cache entries dropped by the entry or byte bound.",
		func() float64 { return float64(s.cacheTotalsNow().regionEvictions) })
	reg.CounterFunc("waso_region_cache_invalidations_total",
		"Region-cache entries dropped because a mutation touched their ball.",
		func() float64 { return float64(s.cacheTotalsNow().regionInvalidated) })
	reg.CounterFunc("waso_workspace_pool_gets_total",
		"Workspaces handed out by per-graph pools.",
		func() float64 { return float64(s.cacheTotalsNow().poolGets) })
	reg.CounterFunc("waso_workspace_pool_allocs_total",
		"Workspaces freshly allocated (pool misses).",
		func() float64 { return float64(s.cacheTotalsNow().poolAllocs) })

	s.registerAdmissionMetrics()
	s.registerStoreMetrics()
}

// storeStats reads the durable layer's counters; a memory-only service
// reports zeros so the waso_wal_* / waso_store_* families are always
// present with stable shapes.
func (s *Service) storeStats() store.Stats {
	if s.st == nil {
		return store.Stats{}
	}
	return s.st.Stats()
}

// registerStoreMetrics builds the durability families. Registered
// unconditionally: a memory-only service exports them at zero, so
// dashboards and alerts keep one shape across deployments.
func (s *Service) registerStoreMetrics() {
	reg := s.reg
	reg.CounterFunc("waso_graph_mutations_total",
		"Mutation batches applied across all graphs.",
		func() float64 { return float64(s.mutations.Load()) })
	reg.CounterFunc("waso_wal_appends_total",
		"Mutation records appended to graph WALs.",
		func() float64 { return float64(s.storeStats().Appends) })
	reg.CounterFunc("waso_wal_append_bytes_total",
		"Bytes appended to graph WALs.",
		func() float64 { return float64(s.storeStats().AppendBytes) })
	reg.CounterFunc("waso_wal_fsyncs_total",
		"WAL fsyncs issued (inline or group-commit).",
		func() float64 { return float64(s.storeStats().Fsyncs) })
	reg.GaugeFunc("waso_wal_size_bytes",
		"Current total WAL size across resident graphs.",
		func() float64 { return float64(s.storeStats().WALBytes) })
	reg.CounterFunc("waso_store_snapshots_total",
		"Graph snapshots written (including create-time ones).",
		func() float64 { return float64(s.storeStats().Snapshots) })
	reg.CounterFunc("waso_store_snapshot_bytes_total",
		"Bytes written to graph snapshots.",
		func() float64 { return float64(s.storeStats().SnapshotBytes) })
	reg.CounterFunc("waso_store_recovery_graphs_total",
		"Graphs rebuilt from disk at boot.",
		func() float64 { return float64(s.storeStats().RecoveredGraphs) })
	reg.CounterFunc("waso_store_recovery_records_total",
		"WAL records replayed on top of snapshots at boot.",
		func() float64 { return float64(s.storeStats().RecoveredRecords) })
	reg.CounterFunc("waso_store_recovery_truncated_bytes_total",
		"Torn WAL tail bytes dropped during recovery.",
		func() float64 { return float64(s.storeStats().TruncatedBytes) })
	reg.GaugeFunc("waso_store_durable",
		"1 when a durable store is configured, else 0.",
		func() float64 {
			if s.st != nil {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("waso_store_read_only",
		"1 while the durable store is degraded to read-only, else 0.",
		func() float64 {
			if s.storeStats().ReadOnly {
				return 1
			}
			return 0
		})
}

// Metrics returns the service's registry — the single source that
// /metrics renders and servebench reads. Transports may register their
// own families on it (wasod adds the HTTP family) before serving.
func (s *Service) Metrics() *metrics.Registry { return s.reg }

// errKind classifies a solve error for the waso_solve_errors_total kind
// label. Keep the set small and closed: label values are series.
func errKind(err error) string {
	switch {
	case errors.Is(err, ErrInvalid), errors.Is(err, ErrNotFound):
		return "invalid"
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	case errors.Is(err, context.Canceled):
		return "canceled"
	default:
		return "other"
	}
}

// Health is the wire-ready liveness summary: resident graphs, the shared
// executor's instantaneous backlog (the admission-control signal), process
// uptime, and the drain flag transports use as the readiness signal (a
// draining server is alive but should be rotated out of load balancing).
type Health struct {
	Graphs        int         `json:"graphs"`
	ExecutorQueue int         `json:"executor_queue"`
	UptimeS       float64     `json:"uptime_s"`
	Draining      bool        `json:"draining,omitempty"`
	Store         StoreHealth `json:"store"`
}

// StoreHealth summarizes the durable layer for /healthz: whether one is
// configured at all, whether it has degraded to read-only (writes are
// being refused with 503), and the WAL footprint awaiting the next
// snapshot.
type StoreHealth struct {
	Durable  bool  `json:"durable"`
	ReadOnly bool  `json:"read_only"`
	WALBytes int64 `json:"wal_bytes"`
}

// Health returns the current liveness summary.
func (s *Service) Health() Health {
	s.mu.RLock()
	graphs := len(s.graphs)
	s.mu.RUnlock()
	st := s.storeStats()
	return Health{
		Graphs:        graphs,
		ExecutorQueue: s.exec.Stats().TasksQueued,
		UptimeS:       time.Since(s.start).Seconds(),
		Draining:      s.adm.Draining(),
		Store: StoreHealth{
			Durable:  s.st != nil,
			ReadOnly: st.ReadOnly,
			WALBytes: st.WALBytes,
		},
	}
}
