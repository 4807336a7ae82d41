// Package waso is the root of a Go reproduction of "Willingness
// Optimization for Social Group Activity" (PVLDB 2013), grown toward a
// production-scale serving system.
//
// The code layers strictly, lower layers never importing higher ones:
//
//	core    — wire-ready vocabulary: Request (k, starts, samples, seed,
//	          alpha, sampler, prune — no sentinel values, explicit
//	          DefaultRequest/Validate), Report, Solution.
//	graph   — immutable CSR social graph carrying the raw per-node
//	          interest (η) and per-edge tightness (τ) scores plus a fused
//	          τ_out+τ_in adjacency for the solver hot loops, the
//	          versioned binary codec, JSON edge-list ingestion, and
//	          graph.Region — bounded-depth BFS extraction of the
//	          (k−1)-hop ball around a start, remapped to a dense compact
//	          CSR (monotone id order, lossless for any growth of size ≤ k).
//	          The graph holds no objective semantics: what a group is
//	          worth is the next layer's business.
//	objective — the pluggable scoring layer between graph and solver:
//	          an Objective is a Name plus Arrays, which turns a graph's
//	          raw scores into the fused per-node / per-adjacency-entry
//	          gain arrays the growth loops consume (the fused-additive
//	          contract: symmetric edge gains, finite node gains). A
//	          Binding derives Delta, Value and the §3.1 start Bound
//	          from those arrays; the bound counts the edge gains'
//	          positive part, so it stays admissible on every graph. One
//	          fixed registry (New/Names) holds "willingness" (Eq. 1),
//	          which aliases the graph's own fused slabs so the seam is
//	          bit-identical to the pre-seam code, and "friend", which
//	          scores noisy-or friend-making likelihood (arXiv
//	          1502.06682).
//	solver  — the four paper algorithms behind a registry
//	          (Register/New/Names) with the context-aware entry point
//	          Solve(ctx, g, req). The driver decomposes the sample budget
//	          into (start, sample-chunk) tasks run on an Executor with a
//	          shared lock-free incumbent for cross-start pruning:
//	          Report.Best is independent of the worker count, while the
//	          Pruned counter is advisory (schedule-dependent). Locality:
//	          each start's tasks run on its Region when the (K−1)-hop
//	          ball is small enough (Request.Region: auto/off/always,
//	          results-neutral by construction). Solvers consume the
//	          objective seam only — an objective.Binding's arrays and
//	          Bound — so every algorithm, bound and cache works for any
//	          registered objective unchanged, at the request's own
//	          starts and samples. WithPrep shares a precomputed start
//	          ranking (Binding.Bound scores) across calls (per-call
//	          solves build a partial top-t ranking instead of sorting
//	          the graph), WithWorkspacePool recycles
//	          task workspaces across calls (a solve without one recycles
//	          them within the call), WithRegionCache shares a bounded LRU
//	          of extracted (start, radius) regions. There is one
//	          execution path: every solve runs its tasks on a bounded
//	          Executor — the one WithExecutor attaches, else a package
//	          default of GOMAXPROCS workers started on first use —
//	          drained fairly across concurrent solves. The executor
//	          schedules two priority lanes (interactive, bulk) by
//	          weighted round-robin and drops queued tasks whose solve
//	          deadline already passed at dequeue.
//	admit   — admission control beside metrics, below service: a small
//	          controller deciding admit / degrade / shed per request from
//	          executor backlog signals (queue depth, windowed queue-wait
//	          p99 with hysteresis, a global in-flight cap, per-client
//	          quotas, drain). It imports neither solver nor net/http —
//	          the service feeds it signals and maps its decisions onto
//	          transports.
//	store   — the durable layer, beside admit below service: per-graph
//	          crash-safe persistence as periodic binary snapshots plus a
//	          CRC-framed append-only mutation log (WAL) replayed at boot.
//	          Recovery truncates torn tails (an interrupted append) but
//	          fails loudly on mid-log corruption (*store.CorruptLogError)
//	          rather than silently dropping acknowledged writes; any
//	          write failure degrades the store to read-only instead of
//	          risking a half-written log. It imports only graph (for the
//	          codec and Mutation vocabulary) and takes its filesystem as
//	          an interface, so fault-injection tests can cut power at
//	          every byte offset.
//	service — the serving layer: concurrency-safe in-memory graph store
//	          (load/generate/evict/mutate) holding one workspace pool
//	          per graph plus one solver.Prep and region cache per
//	          (graph, objective) — the default objective bound eagerly,
//	          others on first request — one
//	          process-wide solver.Executor every request runs on, and
//	          the Solve/SolveBatch orchestrators with per-request
//	          deadlines (batch items run concurrently and fail
//	          independently, with answers bit-identical to sequential
//	          single solves). Mutate applies a validated batch through
//	          the WAL (durability before visibility), then surgically
//	          refreshes per-graph state — Prep rescores only touched
//	          nodes, the region cache drops only (start, radius) balls
//	          within radius hops of an edit — so mutated-graph solves
//	          stay bit-identical to fresh-upload solves. The service
//	          also owns the process metrics.Registry: per-algo solve
//	          latency and quality moments, executor backlog, cache/pool
//	          counters that stay monotone across graph eviction, and the
//	          waso_wal_*/waso_store_* durability families. Every Solve
//	          (interactive) and SolveBatch (bulk) passes the
//	          admit.Controller first; shed requests surface as
//	          *OverloadError, degraded ones run with clamped budgets and
//	          Report.Degraded set.
//	cmd     — the front ends over the same Request path: cmd/waso
//	          (experiment harness and -batch item runner), cmd/wasod
//	          (JSON HTTP server incl. POST /v1/solve/batch, PATCH
//	          /v1/graphs/{id} mutation batches, GET /metrics Prometheus
//	          exposition, structured access logs, opt-in -pprof;
//	          -data-dir turns on the durable store with boot-time
//	          recovery; overload maps to 429/503 with jittered
//	          Retry-After and SIGTERM runs the drain sequence), and
//	          cmd/wasobench (the A/B perf gate over go test -bench
//	          output of a parent and a change, and the -overload
//	          shed-don't-collapse gate against a live wasod). The
//	          serving benchmark, servebench/, is a module of its own
//	          that drives service directly and checks every answer.
//	lint    — off to the side of the tower: internal/lint and its driver
//	          cmd/wasolint machine-check the conventions the layers above
//	          rely on (solver result-path determinism, the waso_ metric
//	          catalogue, wasod's fail()/statusOf error mapping, ctx
//	          observation in exported entry points). The analysis layer
//	          only observes the codebase — nothing outside cmd/wasolint
//	          and the lint tests imports it, and it imports nothing from
//	          the tower.
//
// gen (synthetic instances under the paper's one score model, §5) feeds
// graphs into cmd and service. sampling, rng and bitset are the solvers'
// substrate; stats is the batch mean/stddev/min-max and table formatting
// of cmd/waso; metrics is the dependency-free streaming-stats core
// (counters, gauges, Welford mean/stddev, fixed-boundary histograms,
// Prometheus text rendering) that solver and service instrument
// themselves with.
//
// This root package carries no code — only repo-level documentation and
// cross-package benchmarks such as BenchmarkSamplerCrossover.
package waso
