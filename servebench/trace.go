package main

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"
)

// Span names: one per layer boundary the replica crosses, named after the
// repository's modules so per-layer metrics read as <module>.<operation>.
const (
	spanSetup      = "bench.setup"       // one boot of the stack
	spanRequest    = "bench.request"     // one interactive request, wire to wire
	spanBatch      = "bench.batch"       // one bulk SolveBatch call
	spanWrite      = "bench.write"       // one mutation batch
	spanDecode     = "core.decode"       // core.DecodeRequest
	spanEncode     = "core.encode"       // JSON encoding of the Report
	spanGraphDec   = "graph.decode"      // graph.Decode of the upload
	spanApply      = "graph.apply"       // Graph.ApplyMutations
	spanHop        = "graph.hop"         // the two HopDistances calls of one write
	spanExtract    = "graph.extract"     // RegionCache.Acquire that missed
	spanBind       = "objective.bind"    // objective.Bind
	spanPrep       = "solver.prep"       // solver.NewPrep
	spanRescore    = "solver.rescore"    // Prep.Rescore
	spanClone      = "solver.clone"      // RegionCache.CloneFor
	spanPoolBuild  = "solver.pool_build" // solver.NewWorkspacePool
	spanRegions    = "solver.regions"    // the per-start Acquire loop of one solve
	spanSolve      = "solver.solve"      // Solver.Solve
	spanStoreOpen  = "store.open"        // store.Open
	spanRecover    = "store.recover"     // Store.Recover
	spanAppend     = "store.append"      // Store.Append
	spanSnapshot   = "store.snapshot"    // Store.Snapshot
	spanFSOpen     = "store.fs_open"     // FS.OpenFile
	spanFSWrite    = "store.fs_write"    // File.Write
	spanFSSync     = "store.fs_sync"     // File.Sync
	spanFSRename   = "store.fs_rename"   // FS.Rename
	spanFSSyncDir  = "store.fs_sync_dir" // FS.SyncDir
	noParent       = spanID(-1)
	setupRequestID = int64(-1)
)

// spanID indexes a tracer's span list; noParent marks a root.
type spanID int32

// span is one timed call: name, start and end in nanoseconds since the
// tracer's epoch, the span that caused it and the request it served.
type span struct {
	name       string
	parent     spanID
	req        int64
	start, end int64
}

// tracer keeps spans in memory for the whole traced run; they are written
// out once, at the end. A nil *tracer records nothing, so the untraced
// replica runs the same code with tracing off.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent spanID, req int64) spanID {
	if t == nil {
		return noParent
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	id := spanID(len(t.spans))
	t.spans = append(t.spans, span{name: name, parent: parent, req: req, start: now, end: now})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id spanID) {
	if t == nil || id == noParent {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// record adds a finished span whose start was taken before the caller
// knew whether to keep it (a region lookup is only an extraction if it
// missed).
func (t *tracer) record(name string, parent spanID, req int64, start time.Time) {
	if t == nil {
		return
	}
	s := span{name: name, parent: parent, req: req,
		start: start.Sub(t.epoch).Nanoseconds(), end: time.Since(t.epoch).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// selfTimes returns, per span, its duration minus the part of its interval
// covered by its child spans. Children of one parent may overlap (batch
// items run concurrently), so the covered part is the length of the union
// of the children's intervals, clipped to the parent's.
func selfTimes(spans []span) []int64 {
	children := make(map[spanID][]spanID)
	for i, s := range spans {
		if s.parent != noParent {
			children[s.parent] = append(children[s.parent], spanID(i))
		}
	}
	self := make([]int64, len(spans))
	type interval struct{ lo, hi int64 }
	var ivs []interval
	for i, s := range spans {
		self[i] = s.end - s.start
		kids := children[spanID(i)]
		if len(kids) == 0 {
			continue
		}
		ivs = ivs[:0]
		for _, k := range kids {
			lo, hi := max(spans[k].start, s.start), min(spans[k].end, s.end)
			if hi > lo {
				ivs = append(ivs, interval{lo, hi})
			}
		}
		slices.SortFunc(ivs, func(a, b interval) int {
			switch {
			case a.lo < b.lo:
				return -1
			case a.lo > b.lo:
				return 1
			}
			return 0
		})
		covered, curLo, curHi := int64(0), int64(0), int64(-1)
		for _, iv := range ivs {
			if iv.lo > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = iv.lo, iv.hi
				continue
			}
			curHi = max(curHi, iv.hi)
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		self[i] -= covered
	}
	return self
}

// layerTotals aggregates one span name: how many calls and their summed
// self time.
type layerTotals struct {
	calls  int
	selfNS int64
}

// meanSelf returns the mean self time per call in the given unit, or 0
// when the layer was never called.
func (lt layerTotals) meanSelf(unit time.Duration) float64 {
	if lt.calls == 0 {
		return 0
	}
	return float64(lt.selfNS) / float64(lt.calls) / float64(unit)
}

// aggregate sums self time per span name.
func aggregate(spans []span) map[string]layerTotals {
	self := selfTimes(spans)
	out := make(map[string]layerTotals)
	for i, s := range spans {
		lt := out[s.name]
		lt.calls++
		lt.selfNS += self[i]
		out[s.name] = lt
	}
	return out
}

// writeSpans dumps spans as tab-separated lines: id, parent, request id,
// name, start and end in nanoseconds since the trace epoch.
func writeSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "id\tparent\treq\tname\tstart_ns\tend_ns")
	for i, s := range spans {
		fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%d\t%d\n", i, s.parent, s.req, s.name, s.start, s.end)
	}
	return bw.Flush()
}
