package solver

import (
	"container/list"
	"context"
	"sync"

	"waso/internal/core"
	"waso/internal/graph"
	"waso/internal/objective"
)

// Region policy: every growth from a start is confined to the (K−1)-hop
// ball around it (see graph.Region), so the driver can hand each start a
// compact remapped CSR instead of the whole graph. Extraction is bounded —
// a ball bigger than regionNodeCap falls back to whole-graph solving for
// that start — and skipped outright when a cheap branching estimate says
// the ball would blow the cap anyway, so dense high-k requests pay nothing
// for the feature. Results are bit-identical in every mode; only memory
// traffic changes.

// DefaultRegionCacheEntries bounds a RegionCache when the caller passes no
// explicit capacity.
const DefaultRegionCacheEntries = 256

// Auto-mode regions are capped at min(n/regionNodeCapFrac,
// regionNodeCapMax) nodes: big enough that real locality wins fit, small
// enough that a capped extraction attempt stays cheap relative to a
// solve.
const (
	regionNodeCapMax  = 1 << 15
	regionNodeCapFrac = 4
)

// autoRegionCap returns the auto-mode node cap for a graph of n nodes.
func autoRegionCap(n int) int {
	c := n / regionNodeCapFrac
	if c > regionNodeCapMax {
		c = regionNodeCapMax
	}
	return c
}

// ballFits is the shared branching estimate behind both worthwhile
// checks: a ball that starts at firstHop expected nodes and branches by
// the graph's average degree for the remaining radius−1 hops plausibly
// fits cap (×4 headroom — a wrong "yes" costs one capped BFS, a wrong
// "no" only a missed optimization).
func ballFits(g *graph.Graph, firstHop float64, radius, cap int) bool {
	d := g.AvgDegree()
	if d < 1 {
		d = 1
	}
	est := firstHop
	for i := 1; i < radius; i++ {
		est *= d
		if est > 4*float64(cap) {
			return false
		}
	}
	return est <= 4*float64(cap)
}

// regionWorthwhile is the graph-level gate: expected branching is the
// average degree every hop, so the ball grows like avgDeg^radius.
func regionWorthwhile(g *graph.Graph, radius, cap int) bool {
	if cap < 2 {
		return false
	}
	if radius <= 0 {
		return true
	}
	return ballFits(g, g.AvgDegree(), radius, cap)
}

// startWorthwhile refines the estimate for one start: the first hop
// branches by the start's own degree — and CBAS starts are the top
// NodeScore nodes, i.e. hubs, whose balls on heavy-tailed graphs dwarf
// the average-degree estimate. Skipping those up front is what keeps auto
// mode from paying a doomed capped BFS per hub start on graphs whose mean
// degree looks regional.
func startWorthwhile(g *graph.Graph, start graph.NodeID, radius, cap int) bool {
	if radius <= 0 {
		return true
	}
	return ballFits(g, float64(g.Degree(start))+1, radius, cap)
}

// planRegions decides the locality layout of one solve: one region per
// start (nil entries fall back to the whole graph), plus the workspace
// capacity fresh workers should allocate. A context-attached RegionCache
// (the serving path) answers repeat (start, radius) keys without
// re-extracting; otherwise a single RegionBuilder amortizes its scratch
// across the starts of this call.
//
// The radius is K−1 clamped to n−1: no node lies deeper than n−1 hops, so
// a deeper ball is the same whole component, and the clamp keeps the
// size estimates, which run before any deadline check, from looping K
// times on a graph too sparse for their estimate to grow.
func planRegions(ctx context.Context, b *objective.Binding, starts []graph.NodeID, req core.Request) ([]*graph.Region, int) {
	g := b.Graph()
	if req.Region == core.RegionOff || len(starts) == 0 {
		return nil, g.N()
	}
	radius := min(req.K, g.N()) - 1
	always := req.Region == core.RegionAlways
	cap := autoRegionCap(g.N())
	if !always && !regionWorthwhile(g, radius, cap) {
		return nil, g.N()
	}
	rc := regionCacheFor(ctx, g, b.Name())
	_, _, edge, node := b.CSR()
	var rb *graph.RegionBuilder
	extract := func(start graph.NodeID, cap int) *graph.Region {
		if rb == nil {
			rb = graph.NewRegionBuilder(g)
		}
		return rb.Extract(start, radius, cap, edge, node)
	}
	regions := make([]*graph.Region, len(starts))
	maxN, all := 0, true
	for si, s := range starts {
		var r *graph.Region
		switch {
		case !always && !startWorthwhile(g, s, radius, cap):
			// Hub start on a regional-looking graph: the ball cannot fit,
			// don't pay the capped BFS to find that out.
		case rc != nil:
			r = rc.Acquire(s, radius)
		case always:
			r = extract(s, g.N())
		default:
			r = extract(s, cap)
		}
		if r == nil && always {
			// The cache applies the auto cap; the verification mode wants
			// the region regardless, so extract it locally without one.
			r = extract(s, g.N())
		}
		regions[si] = r
		if r == nil {
			all = false
		} else if r.N() > maxN {
			maxN = r.N()
		}
	}
	if maxN == 0 {
		return nil, g.N()
	}
	if !all {
		return regions, g.N()
	}
	return regions, maxN
}

// regionKey identifies one cached region: radius is K−1, so requests with
// different budgets, α, sampler or seed against the same (start, K) share
// one entry — the common serving pattern of many queries per graph.
type regionKey struct {
	start  graph.NodeID
	radius int
}

// regionEntry is one cache slot. r == nil is a cached negative: the ball
// exceeded the cap, so this (start, radius) permanently falls back to
// whole-graph solving — remembering that is what keeps repeated dense
// requests from re-running the capped BFS.
type regionEntry struct {
	key regionKey
	r   *graph.Region
}

// DefaultRegionCacheBytes bounds the approximate memory a RegionCache may
// hold in extracted regions, independently of the entry cap: region sizes
// are request-dependent, so an entry count alone could pin hundreds of MB
// per graph past the service's admission caps. 128 MB holds ~30 cap-sized
// regions of a 1M-node graph — far more than one start set needs.
const DefaultRegionCacheBytes = 128 << 20

// RegionCache is a bounded LRU of extracted search regions for one
// (graph, objective) binding — cached regions carry the objective's gain
// slabs — keyed by (start, radius) and limited both by entry count and by
// approximate resident bytes. A serving layer keeps one per resident
// (graph, objective) (alongside its Prep) and attaches it to request
// contexts with WithRegionCache; concurrent Solves share entries. Safe
// for concurrent use: lookups only touch the index mutex, while misses
// serialize among themselves on a separate extraction mutex — a slow
// first-touch BFS never blocks concurrent hits.
type RegionCache struct {
	b        *objective.Binding
	g        *graph.Graph // b.Graph(), cached for the hot identity check
	max      int
	maxBytes int64

	mu          sync.Mutex // guards the index; never held during extraction
	lru         *list.List // front = most recently used, of *regionEntry
	byKey       map[regionKey]*list.Element
	bytes       int64
	hits        uint64
	misses      uint64
	negHits     uint64 // hits whose entry is a cached negative (r == nil)
	evictions   uint64 // entries dropped by the LRU/byte bounds
	invalidated uint64 // entries dropped by CloneFor because a mutation touched their ball

	extractMu sync.Mutex // serializes misses over the shared builder scratch
	rb        *graph.RegionBuilder
}

// NewRegionCache returns an empty cache holding at most maxEntries
// regions for binding b (DefaultRegionCacheEntries when maxEntries ≤ 0),
// and at most DefaultRegionCacheBytes of extracted region data.
func NewRegionCache(b *objective.Binding, maxEntries int) *RegionCache {
	if maxEntries <= 0 {
		maxEntries = DefaultRegionCacheEntries
	}
	return &RegionCache{
		b:        b,
		g:        b.Graph(),
		max:      maxEntries,
		maxBytes: DefaultRegionCacheBytes,
		lru:      list.New(),
		byKey:    make(map[regionKey]*list.Element),
	}
}

// Graph returns the graph this cache extracts regions from.
func (rc *RegionCache) Graph() *graph.Graph { return rc.g }

// Binding returns the objective binding whose gain slabs cached regions
// carry.
func (rc *RegionCache) Binding() *objective.Binding { return rc.b }

// regionBytes approximates the resident size of one cache entry: ids,
// offsets, scores and the fused adjacency, plus fixed bookkeeping. nil
// (negative) entries carry bookkeeping only.
func regionBytes(r *graph.Region) int64 {
	const overhead = 128
	if r == nil {
		return overhead
	}
	return overhead + int64(r.N())*20 + int64(2*r.M())*12
}

// Acquire returns the region for (start, radius), extracting and caching
// it on first use. nil means the ball exceeds the auto cap and the caller
// should solve this start on the whole graph; the negative result is
// cached too.
func (rc *RegionCache) Acquire(start graph.NodeID, radius int) *graph.Region {
	key := regionKey{start: start, radius: radius}
	rc.mu.Lock()
	if el, ok := rc.byKey[key]; ok {
		rc.hits++
		rc.lru.MoveToFront(el)
		r := el.Value.(*regionEntry).r
		if r == nil {
			rc.negHits++
		}
		rc.mu.Unlock()
		return r
	}
	rc.misses++
	rc.mu.Unlock()

	// Extract outside the index lock so in-flight hits never wait on a
	// BFS. Misses serialize here (they share the builder's O(n) scratch);
	// a concurrent miss for the same key may have filled it while we
	// queued, so re-check before doing the work. The insert happens
	// before extractMu is released — otherwise two same-key misses could
	// interleave their inserts and orphan an LRU element whose eventual
	// eviction would delete the live entry's index mapping.
	rc.extractMu.Lock()
	defer rc.extractMu.Unlock()
	rc.mu.Lock()
	if el, ok := rc.byKey[key]; ok {
		rc.lru.MoveToFront(el)
		r := el.Value.(*regionEntry).r
		rc.mu.Unlock()
		return r
	}
	rc.mu.Unlock()
	if rc.rb == nil {
		rc.rb = graph.NewRegionBuilder(rc.g)
	}
	_, _, edge, node := rc.b.CSR()
	r := rc.rb.Extract(start, radius, autoRegionCap(rc.g.N()), edge, node)

	rc.mu.Lock()
	rc.byKey[key] = rc.lru.PushFront(&regionEntry{key: key, r: r})
	rc.bytes += regionBytes(r)
	for rc.lru.Len() > 1 && (rc.lru.Len() > rc.max || rc.bytes > rc.maxBytes) {
		back := rc.lru.Back()
		rc.lru.Remove(back)
		e := back.Value.(*regionEntry)
		delete(rc.byKey, e.key)
		rc.bytes -= regionBytes(e.r)
		rc.evictions++
	}
	rc.mu.Unlock()
	return r
}

// MaxRadius returns the largest radius of any cached key (0 when empty) —
// the BFS depth bound a mutating caller needs to decide which cached balls
// a touched-node set can reach.
func (rc *RegionCache) MaxRadius() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	maxR := 0
	for el := rc.lru.Front(); el != nil; el = el.Next() {
		if r := el.Value.(*regionEntry).key.radius; r > maxR {
			maxR = r
		}
	}
	return maxR
}

// CloneFor builds the successor cache for the same objective bound to a
// mutated graph, retaining every entry keep reports unaffected — the
// surgical-invalidation primitive. A retained *graph.Region is shared,
// not copied: regions are self-contained CSR snapshots, and an entry
// whose ≤radius ball no mutation touched carries identical topology and
// gain slabs on both bindings (fused-additive gains depend only on the
// ball's own η/τ). Entries keep rejects, and cached negatives whose
// extraction cap changed with the node count (their "ball exceeds the
// cap" verdict may no longer hold), are dropped and counted as
// invalidations.
//
// The old cache is left untouched and stays valid for in-flight solves
// against the old graph — a new cache object (rather than rehosting in
// place) is what keeps the swap race-free: regionCacheFor's pointer check
// simply fails one side or the other, never mixing graphs. Counters carry
// over so serving metrics stay monotone across mutations.
func (rc *RegionCache) CloneFor(newB *objective.Binding, keep func(start graph.NodeID, radius int) bool) *RegionCache {
	if newB.Name() != rc.b.Name() {
		panic("solver: RegionCache.CloneFor across objectives (" + rc.b.Name() + " -> " + newB.Name() + ")")
	}
	nc := &RegionCache{
		b:        newB,
		g:        newB.Graph(),
		max:      rc.max,
		maxBytes: rc.maxBytes,
		lru:      list.New(),
		byKey:    make(map[regionKey]*list.Element),
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	nc.hits, nc.misses, nc.negHits = rc.hits, rc.misses, rc.negHits
	nc.evictions, nc.invalidated = rc.evictions, rc.invalidated
	capChanged := autoRegionCap(nc.g.N()) != autoRegionCap(rc.g.N())
	for el := rc.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*regionEntry)
		if (e.r == nil && capChanged) || !keep(e.key.start, e.key.radius) {
			nc.invalidated++
			continue
		}
		nc.byKey[e.key] = nc.lru.PushBack(e) // front→back walk keeps LRU order
		nc.bytes += regionBytes(e.r)
	}
	return nc
}

// RegionCacheStats is one consistent snapshot of cache effectiveness.
// NegativeHits is the subset of Hits that returned a cached negative (the
// ball exceeded the cap, so the start solves whole-graph); Evictions
// counts entries dropped by the entry or byte bound; Invalidated counts
// entries dropped by CloneFor because a mutation touched their ball. A
// same-key miss that was filled by a concurrent miss while waiting for the
// extraction lock still counts as the one miss it classified as.
type RegionCacheStats struct {
	Hits         uint64
	Misses       uint64
	NegativeHits uint64
	Evictions    uint64
	Invalidated  uint64
	Entries      int
	Bytes        int64
}

// Stats reports cache effectiveness as one consistent snapshot.
func (rc *RegionCache) Stats() RegionCacheStats {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return RegionCacheStats{
		Hits:         rc.hits,
		Misses:       rc.misses,
		NegativeHits: rc.negHits,
		Evictions:    rc.evictions,
		Invalidated:  rc.invalidated,
		Entries:      rc.lru.Len(),
		Bytes:        rc.bytes,
	}
}

// regionCacheCtxKey carries a *RegionCache through a context.
type regionCacheCtxKey struct{}

// WithRegionCache returns a context carrying rc. A Solve whose context
// carries a cache for the same (graph, objective) fetches per-start
// regions from it instead of extracting fresh ones — the mechanism the
// service layer uses to amortize extraction across requests.
func WithRegionCache(ctx context.Context, rc *RegionCache) context.Context {
	return context.WithValue(ctx, regionCacheCtxKey{}, rc)
}

// regionCacheFor returns the context's cache when it matches (g, objName),
// else nil.
func regionCacheFor(ctx context.Context, g *graph.Graph, objName string) *RegionCache {
	if rc, ok := ctx.Value(regionCacheCtxKey{}).(*RegionCache); ok && rc != nil && rc.g == g && rc.b.Name() == objName {
		return rc
	}
	return nil
}
