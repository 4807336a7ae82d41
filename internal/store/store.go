package store

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"waso/internal/graph"
)

// ErrReadOnly reports a write refused because the store has degraded to
// read-only mode after an earlier filesystem failure (or was closed).
// Resident graphs keep serving; mutations and uploads must wait for an
// operator. The serving layer maps it to 503 + Retry-After.
var ErrReadOnly = errors.New("store: read-only (degraded after a storage failure)")

// errPartialCreate marks a graph directory stranded by a crash before its
// first snapshot was published; recovery removes it and moves on.
var errPartialCreate = errors.New("store: half-created graph directory")

// FsyncMode selects the WAL durability policy.
type FsyncMode int

const (
	// FsyncAlways syncs the WAL inside every Append — no acknowledged
	// mutation is ever lost, at one fsync of latency per batch.
	FsyncAlways FsyncMode = iota
	// FsyncInterval group-commits: Append returns after the buffered
	// write, and a background flusher syncs dirty WALs every Interval —
	// bounding data loss to one interval at a fraction of the latency.
	FsyncInterval
	// FsyncOff never syncs explicitly; the OS decides. Crash durability
	// is whatever the page cache had flushed. For bulk loads and tests.
	FsyncOff
)

func (m FsyncMode) String() string {
	switch m {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncOff:
		return "off"
	}
	return fmt.Sprintf("FsyncMode(%d)", int(m))
}

// DefaultSnapshotEvery is the WAL-records-per-snapshot cadence when
// Options.SnapshotEvery is zero.
const DefaultSnapshotEvery = 256

// Options configures a Store.
type Options struct {
	// FS is the filesystem; nil means the real one.
	FS FS
	// Fsync is the WAL durability policy.
	Fsync FsyncMode
	// Interval is the group-commit period for FsyncInterval; ≤ 0 means
	// 100ms.
	Interval time.Duration
	// SnapshotEvery is how many WAL records accumulate before Append
	// reports a snapshot due; 0 means DefaultSnapshotEvery, < 0 disables
	// automatic snapshots.
	SnapshotEvery int
}

// Snapshot file layout: magic, format version, the seq the snapshot
// covers, then the graph codec bytes.
var snapMagic = [4]byte{'W', 'S', 'N', 'P'}

const (
	snapVersion = 1
	snapHeader  = 4 + 4 + 8

	walName     = "wal.log"
	snapName    = "snap.waso"
	snapTmpName = "snap.waso.tmp"
	dirPrefix   = "g-"
)

// graphState is the per-graph durable state the store keeps resident: the
// open WAL handle and its bookkeeping.
type graphState struct {
	wal       File
	walBytes  int64
	dirty     bool // written since the last sync (interval mode)
	sinceSnap int  // records appended since the last snapshot
}

// Store is the durable layer for a data directory: one subdirectory per
// graph id (hex-encoded, so arbitrary ids stay path-safe) holding a
// snapshot and a WAL. All methods are safe for concurrent use; per-graph
// mutation ordering (seq assignment) is the caller's job — the serving
// layer already serializes mutations per graph.
type Store struct {
	dir  string
	fs   FS
	opts Options

	mu     sync.Mutex
	graphs map[string]*graphState
	closed bool

	readOnly atomic.Bool

	// Cumulative counters for the waso_wal_* / waso_store_* families.
	appends       atomic.Uint64
	appendBytes   atomic.Uint64
	fsyncs        atomic.Uint64
	snapshots     atomic.Uint64
	snapshotBytes atomic.Uint64
	recGraphs     atomic.Uint64
	recRecords    atomic.Uint64
	recTruncated  atomic.Uint64

	flushDone chan struct{} // closes when the background flusher exits
	flushStop chan struct{}
}

// Open prepares a store over dir, creating it if needed. Call Recover next
// to replay existing graphs; the store refuses Append for ids it is not
// tracking, so the order is enforced, not advisory.
func Open(dir string, opts Options) (*Store, error) {
	if opts.FS == nil {
		opts.FS = OSFS{}
	}
	if opts.Interval <= 0 {
		opts.Interval = 100 * time.Millisecond
	}
	if opts.SnapshotEvery == 0 {
		opts.SnapshotEvery = DefaultSnapshotEvery
	}
	if err := opts.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create data dir: %w", err)
	}
	s := &Store{
		dir:    dir,
		fs:     opts.FS,
		opts:   opts,
		graphs: make(map[string]*graphState),
	}
	if opts.Fsync == FsyncInterval {
		s.flushStop = make(chan struct{})
		s.flushDone = make(chan struct{})
		go s.flushLoop()
	}
	return s, nil
}

// graphDir maps a graph id to its directory name; hex keeps arbitrary ids
// path-safe and reversible.
func (s *Store) graphDir(id string) string {
	return filepath.Join(s.dir, dirPrefix+hex.EncodeToString([]byte(id)))
}

// Recovered is one graph rebuilt from disk.
type Recovered struct {
	// ID is the graph id the directory encodes.
	ID string
	// Graph is the rebuilt state: snapshot plus replayed WAL records,
	// byte-identical to the state last acknowledged under the fsync
	// policy.
	Graph *graph.Graph
	// Version is the graph's mutation counter (the last applied seq).
	Version uint64
	// Records is how many WAL records were replayed on top of the
	// snapshot.
	Records int
	// TruncatedBytes is the torn tail dropped from the WAL, if any.
	TruncatedBytes int64
}

// Recover replays every graph directory under the data dir and registers
// the recovered graphs for appending. Torn WAL tails are truncated and
// counted; a corrupt mid-log record, an unreadable snapshot, or a seq gap
// fails the whole recovery with a descriptive error (wrapping
// *CorruptLogError where applicable) — boot must not proceed on a lying
// log. Results are sorted by id.
func (s *Store) Recover() ([]Recovered, error) {
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: scan data dir: %w", err)
	}
	var out []Recovered
	for _, ent := range entries {
		if !ent.IsDir() || !strings.HasPrefix(ent.Name(), dirPrefix) {
			continue
		}
		raw, err := hex.DecodeString(strings.TrimPrefix(ent.Name(), dirPrefix))
		if err != nil {
			return nil, fmt.Errorf("store: undecodable graph dir %q: %w", ent.Name(), err)
		}
		rec, err := s.recoverGraph(string(raw))
		if errors.Is(err, errPartialCreate) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("store: recover %q: %w", string(raw), err)
		}
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// recoverGraph rebuilds one graph: load the snapshot, replay the WAL,
// truncate a torn tail, open the WAL for appending, register.
func (s *Store) recoverGraph(id string) (Recovered, error) {
	dir := s.graphDir(id)

	// Drop a temp snapshot a crash may have stranded; it was never made
	// visible, so it holds nothing durable.
	if _, err := s.fs.Stat(filepath.Join(dir, snapTmpName)); err == nil {
		if err := s.fs.RemoveAll(filepath.Join(dir, snapTmpName)); err != nil {
			return Recovered{}, fmt.Errorf("clear stranded snapshot temp: %w", err)
		}
	}

	walPath := filepath.Join(dir, walName)
	g, snapSeq, err := s.readSnapshot(filepath.Join(dir, snapName))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			// A crash mid-Create can strand a directory whose snapshot never
			// got published. If the WAL has no bytes either, nothing durable
			// was ever acknowledged for this id — clear the husk. A WAL with
			// data but no snapshot stays an error: records can't replay from
			// nothing.
			if fi, serr := s.fs.Stat(walPath); serr != nil || fi.Size() == 0 {
				if rerr := s.fs.RemoveAll(dir); rerr != nil {
					return Recovered{}, fmt.Errorf("clear half-created graph dir: %w", rerr)
				}
				return Recovered{}, errPartialCreate
			}
		}
		return Recovered{}, err
	}
	wal, err := s.fs.OpenFile(walPath, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return Recovered{}, fmt.Errorf("open wal: %w", err)
	}
	data, err := io.ReadAll(wal)
	if err != nil {
		wal.Close()
		return Recovered{}, fmt.Errorf("read wal: %w", err)
	}

	// Scan the log up to its end, a torn tail or the first corrupt frame,
	// collecting the records past the snapshot for one replay.
	version := snapSeq
	var (
		pending []walRecord
		off     int
		torn    bool  // the log ends in a torn frame at off
		stop    error // what is wrong with the frame at off, if it is corrupt
	)
scan:
	for off < len(data) {
		seq, muts, frameLen, err := DecodeRecord(data[off:])
		switch {
		case err != nil:
			// A frame that ends at EOF is a torn tail, the signature of a
			// power cut mid-append; anything else is corrupt.
			torn = errors.Is(err, errTruncated) ||
				(errors.Is(err, errBadCRC) && off+frameLen == len(data))
			if !torn {
				stop = err
			}
			break scan
		case seq <= snapSeq:
			// Already folded into the snapshot (a crash landed between the
			// snapshot rename and the WAL truncate).
		case seq != version+1:
			stop = fmt.Errorf("store: sequence gap: record %d after version %d", seq, version)
			break scan
		default:
			pending = append(pending, walRecord{off: int64(off), seq: seq, muts: muts})
			version = seq
		}
		off += frameLen
	}
	// Replay before reporting or cutting what follows the records: a record
	// that does not apply comes first in the log, so its error wins and the
	// WAL stays as it was.
	g, err = replay(g, pending, walPath)
	if err != nil {
		wal.Close()
		return Recovered{}, err
	}
	if stop != nil {
		wal.Close()
		return Recovered{}, &CorruptLogError{Path: walPath, Offset: int64(off), Err: stop}
	}
	var truncated int64
	if torn {
		// Cut the torn tail off so the next append starts on a clean frame
		// boundary.
		truncated = int64(len(data) - off)
		if terr := wal.Truncate(int64(off)); terr != nil {
			wal.Close()
			return Recovered{}, fmt.Errorf("truncate torn tail: %w", terr)
		}
	}
	records := len(pending)
	if _, err := wal.Seek(int64(off), io.SeekStart); err != nil {
		wal.Close()
		return Recovered{}, fmt.Errorf("seek wal tail: %w", err)
	}

	s.mu.Lock()
	s.graphs[id] = &graphState{wal: wal, walBytes: int64(off), sinceSnap: records}
	s.mu.Unlock()
	s.recGraphs.Add(1)
	s.recRecords.Add(uint64(records))
	s.recTruncated.Add(uint64(truncated))
	return Recovered{ID: id, Graph: g, Version: version, Records: records, TruncatedBytes: truncated}, nil
}

// walRecord is one decoded WAL record awaiting replay.
type walRecord struct {
	off  int64 // byte offset of its frame
	seq  uint64
	muts []graph.Mutation
}

// replay applies recs to g in order with one ApplyMutations call: each
// record applied to the state its predecessors left when it was appended,
// and a batch applies its ops in order against the running state, so one
// call yields the graph that one call per record would, for the cost of
// one rebuild. If the batch fails, replay falls back to one call per
// record to name the record that does not apply.
func replay(g *graph.Graph, recs []walRecord, walPath string) (*graph.Graph, error) {
	if len(recs) == 0 {
		return g, nil
	}
	var batch []graph.Mutation
	for _, r := range recs {
		batch = append(batch, r.muts...)
	}
	if g2, _, err := g.ApplyMutations(batch); err == nil {
		return g2, nil
	}
	for _, r := range recs {
		g2, _, err := g.ApplyMutations(r.muts)
		if err != nil {
			return nil, &CorruptLogError{
				Path: walPath, Offset: r.off,
				Err: fmt.Errorf("store: record %d does not apply: %w", r.seq, err),
			}
		}
		g = g2
	}
	return g, nil
}

// readSnapshot loads and validates one snapshot file.
func (s *Store) readSnapshot(path string) (*graph.Graph, uint64, error) {
	f, err := s.fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, 0, fmt.Errorf("open snapshot: %w", err)
	}
	defer f.Close()
	var hdr [snapHeader]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return nil, 0, fmt.Errorf("snapshot header: %w", err)
	}
	if [4]byte(hdr[:4]) != snapMagic {
		return nil, 0, fmt.Errorf("snapshot has bad magic %q", hdr[:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != snapVersion {
		return nil, 0, fmt.Errorf("unsupported snapshot version %d", v)
	}
	seq := binary.LittleEndian.Uint64(hdr[8:])
	g, err := graph.Decode(f)
	if err != nil {
		return nil, 0, fmt.Errorf("snapshot graph: %w", err)
	}
	return g, seq, nil
}

// Create registers a new graph: its directory, a version-0 snapshot, and
// an empty WAL, all durably (snapshot semantics do not depend on the WAL
// fsync policy — losing a just-uploaded graph on crash would violate the
// upload's 200).
func (s *Store) Create(id string, g *graph.Graph) error {
	if s.readOnly.Load() {
		return ErrReadOnly
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrReadOnly
	}
	if _, dup := s.graphs[id]; dup {
		s.mu.Unlock()
		return fmt.Errorf("store: graph %q already exists", id)
	}
	s.mu.Unlock()

	dir := s.graphDir(id)
	if err := s.fs.MkdirAll(dir, 0o755); err != nil {
		return s.degrade(fmt.Errorf("store: create graph dir: %w", err))
	}
	if err := s.writeSnapshot(dir, g, 0); err != nil {
		return s.degrade(err)
	}
	wal, err := s.fs.OpenFile(filepath.Join(dir, walName), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return s.degrade(fmt.Errorf("store: create wal: %w", err))
	}
	s.mu.Lock()
	s.graphs[id] = &graphState{wal: wal}
	s.mu.Unlock()
	return nil
}

// Append logs one mutation batch for id at version seq and applies the
// fsync policy. snapDue reports that the per-graph record count has
// reached the snapshot cadence — the caller should follow up with
// Snapshot (the store cannot: it does not hold the mutated graph).
// Any filesystem failure degrades the store to read-only.
func (s *Store) Append(id string, seq uint64, muts []graph.Mutation) (snapDue bool, err error) {
	if s.readOnly.Load() {
		return false, ErrReadOnly
	}
	frame, err := EncodeRecord(nil, seq, muts)
	if err != nil {
		return false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, ErrReadOnly
	}
	gs, ok := s.graphs[id]
	if !ok {
		return false, fmt.Errorf("store: append to unknown graph %q", id)
	}
	if n, werr := gs.wal.Write(frame); werr != nil || n != len(frame) {
		if werr == nil {
			werr = io.ErrShortWrite
		}
		// The WAL tail is now indeterminate (a short write may sit mid-
		// frame). Recovery's torn-tail truncation makes it consistent
		// again; until then, no further writes.
		return false, s.degrade(fmt.Errorf("store: wal append: %w", werr))
	}
	gs.walBytes += int64(len(frame))
	gs.sinceSnap++
	s.appends.Add(1)
	s.appendBytes.Add(uint64(len(frame)))
	switch s.opts.Fsync {
	case FsyncAlways:
		if serr := gs.wal.Sync(); serr != nil {
			return false, s.degrade(fmt.Errorf("store: wal fsync: %w", serr))
		}
		s.fsyncs.Add(1)
	case FsyncInterval:
		gs.dirty = true
	}
	return s.opts.SnapshotEvery > 0 && gs.sinceSnap >= s.opts.SnapshotEvery, nil
}

// Snapshot persists g (at version seq) as id's new snapshot and truncates
// its WAL. Crash-ordering: the temp file is synced before the atomic
// rename, the directory is synced after it, and the WAL truncate comes
// last — a crash at any point leaves either the old snapshot with a full
// WAL or the new snapshot with a WAL whose superseded records replay as
// no-ops (seq ≤ snapshot seq).
func (s *Store) Snapshot(id string, g *graph.Graph, seq uint64) error {
	if s.readOnly.Load() {
		return ErrReadOnly
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrReadOnly
	}
	gs, ok := s.graphs[id]
	if !ok {
		return fmt.Errorf("store: snapshot of unknown graph %q", id)
	}
	if err := s.writeSnapshot(s.graphDir(id), g, seq); err != nil {
		return s.degrade(err)
	}
	if err := gs.wal.Truncate(0); err != nil {
		return s.degrade(fmt.Errorf("store: truncate wal after snapshot: %w", err))
	}
	if _, err := gs.wal.Seek(0, io.SeekStart); err != nil {
		return s.degrade(fmt.Errorf("store: rewind wal after snapshot: %w", err))
	}
	gs.walBytes = 0
	gs.sinceSnap = 0
	gs.dirty = false
	return nil
}

// writeSnapshot writes the snapshot file durably: temp, sync, rename,
// directory sync.
func (s *Store) writeSnapshot(dir string, g *graph.Graph, seq uint64) error {
	tmp := filepath.Join(dir, snapTmpName)
	f, err := s.fs.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: create snapshot temp: %w", err)
	}
	var hdr [snapHeader]byte
	copy(hdr[:], snapMagic[:])
	binary.LittleEndian.PutUint32(hdr[4:], snapVersion)
	binary.LittleEndian.PutUint64(hdr[8:], seq)
	cw := &countingWriter{w: f}
	if _, err := cw.Write(hdr[:]); err == nil {
		err = graph.Encode(cw, g)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("store: write snapshot: %w", err)
	}
	if err := s.fs.Rename(tmp, filepath.Join(dir, snapName)); err != nil {
		return fmt.Errorf("store: publish snapshot: %w", err)
	}
	if err := s.fs.SyncDir(dir); err != nil {
		return fmt.Errorf("store: sync graph dir: %w", err)
	}
	s.snapshots.Add(1)
	s.snapshotBytes.Add(uint64(cw.n))
	return nil
}

// countingWriter counts bytes on their way to the snapshot file.
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// Remove deletes a graph's durable state. Removal after a degrade is
// allowed — dropping state an operator asked to drop is safe, appending
// to a suspect log is not.
func (s *Store) Remove(id string) error {
	s.mu.Lock()
	gs, ok := s.graphs[id]
	if ok {
		delete(s.graphs, id)
	}
	s.mu.Unlock()
	if gs != nil {
		gs.wal.Close()
	}
	if !ok {
		return nil
	}
	if err := s.fs.RemoveAll(s.graphDir(id)); err != nil {
		return fmt.Errorf("store: remove graph dir: %w", err)
	}
	return nil
}

// degrade flips the store read-only and passes err through. Once flipped
// the store never recovers in-process: the on-disk state needs a clean
// reopen (and possibly an operator) first.
func (s *Store) degrade(err error) error {
	s.readOnly.Store(true)
	return err
}

// ReadOnly reports whether the store has degraded to read-only mode.
func (s *Store) ReadOnly() bool { return s.readOnly.Load() }

// flushLoop is the FsyncInterval group-commit daemon.
func (s *Store) flushLoop() {
	defer close(s.flushDone)
	t := time.NewTicker(s.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-s.flushStop:
			return
		case <-t.C:
			s.flushDirty()
		}
	}
}

// flushDirty syncs every WAL written since the last pass. A failing sync
// degrades the store, same as a failing inline sync would.
func (s *Store) flushDirty() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, gs := range s.graphs {
		if !gs.dirty {
			continue
		}
		if err := gs.wal.Sync(); err != nil {
			s.degrade(err)
			return
		}
		gs.dirty = false
		s.fsyncs.Add(1)
	}
}

// Close flushes and closes every WAL and stops the flusher. The store is
// unusable afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	var firstErr error
	for _, gs := range s.graphs {
		if gs.dirty && !s.readOnly.Load() {
			if err := gs.wal.Sync(); err != nil && firstErr == nil {
				firstErr = err
			}
			gs.dirty = false
		}
		if err := gs.wal.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	s.graphs = make(map[string]*graphState)
	s.mu.Unlock()
	if s.flushStop != nil {
		close(s.flushStop)
		<-s.flushDone
	}
	return firstErr
}

// Stats is one snapshot of the store's cumulative counters and state for
// the waso_wal_* / waso_store_* metric families and /healthz.
type Stats struct {
	Appends          uint64
	AppendBytes      uint64
	Fsyncs           uint64
	Snapshots        uint64
	SnapshotBytes    uint64
	RecoveredGraphs  uint64
	RecoveredRecords uint64
	TruncatedBytes   uint64
	WALBytes         int64 // current total WAL size across graphs
	Graphs           int
	ReadOnly         bool
}

// Stats returns the store's counters and current WAL footprint.
func (s *Store) Stats() Stats {
	st := Stats{
		Appends:          s.appends.Load(),
		AppendBytes:      s.appendBytes.Load(),
		Fsyncs:           s.fsyncs.Load(),
		Snapshots:        s.snapshots.Load(),
		SnapshotBytes:    s.snapshotBytes.Load(),
		RecoveredGraphs:  s.recGraphs.Load(),
		RecoveredRecords: s.recRecords.Load(),
		TruncatedBytes:   s.recTruncated.Load(),
		ReadOnly:         s.readOnly.Load(),
	}
	s.mu.Lock()
	for _, gs := range s.graphs {
		st.WALBytes += gs.walBytes
	}
	st.Graphs = len(s.graphs)
	s.mu.Unlock()
	return st
}
