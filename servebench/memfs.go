package main

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"waso/internal/store"
)

// memFS is an in-memory store.FS: the churn-durable workload's "disk". The
// store's write path (WAL appends, fsyncs, snapshot renames) runs against
// it unchanged, but nothing reaches a shared disk, so the workload measures
// the store's own work and counts fsyncs instead of timing a device.
type memFS struct {
	mu    sync.Mutex
	nodes map[string]*memNode
}

// memNode is one file or directory. A file's bytes are guarded by the
// owning memFS's mutex.
type memNode struct {
	dir  bool
	data []byte
}

func newMemFS() *memFS {
	return &memFS{nodes: map[string]*memNode{".": {dir: true}}}
}

// clone returns an independent deep copy — one boot image per set-up, so a
// boot that appends never changes the image later boots start from.
func (m *memFS) clone() *memFS {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := &memFS{nodes: make(map[string]*memNode, len(m.nodes))}
	for name, n := range m.nodes {
		c.nodes[name] = &memNode{dir: n.dir, data: append([]byte(nil), n.data...)}
	}
	return c
}

func (m *memFS) OpenFile(name string, flag int, _ os.FileMode) (store.File, error) {
	name = filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.nodes[name]
	switch {
	case n == nil && flag&os.O_CREATE == 0:
		return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
	case n == nil:
		n = &memNode{}
		m.nodes[name] = n
	case n.dir:
		return nil, &os.PathError{Op: "open", Path: name, Err: errors.New("is a directory")}
	case flag&os.O_TRUNC != 0:
		n.data = n.data[:0]
	}
	return &memFile{fs: m, node: n}, nil
}

func (m *memFS) Rename(oldpath, newpath string) error {
	oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.nodes[oldpath]
	if n == nil {
		return &os.PathError{Op: "rename", Path: oldpath, Err: os.ErrNotExist}
	}
	m.nodes[newpath] = n
	delete(m.nodes, oldpath)
	return nil
}

func (m *memFS) RemoveAll(path string) error {
	path = filepath.Clean(path)
	m.mu.Lock()
	defer m.mu.Unlock()
	for name := range m.nodes {
		if name == path || strings.HasPrefix(name, path+string(filepath.Separator)) {
			delete(m.nodes, name)
		}
	}
	return nil
}

func (m *memFS) MkdirAll(path string, _ os.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for p := filepath.Clean(path); ; p = filepath.Dir(p) {
		if n := m.nodes[p]; n == nil {
			m.nodes[p] = &memNode{dir: true}
		} else if !n.dir {
			return &os.PathError{Op: "mkdir", Path: p, Err: errors.New("not a directory")}
		}
		if p == "." || p == filepath.Dir(p) {
			return nil
		}
	}
}

func (m *memFS) ReadDir(name string) ([]os.DirEntry, error) {
	name = filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if n := m.nodes[name]; n == nil || !n.dir {
		return nil, &os.PathError{Op: "readdir", Path: name, Err: os.ErrNotExist}
	}
	var out []os.DirEntry
	for p, n := range m.nodes {
		if p != name && filepath.Dir(p) == name {
			out = append(out, fs.FileInfoToDirEntry(memInfo{name: filepath.Base(p), size: int64(len(n.data)), dir: n.dir}))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out, nil
}

func (m *memFS) Stat(name string) (os.FileInfo, error) {
	name = filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.nodes[name]
	if n == nil {
		return nil, &os.PathError{Op: "stat", Path: name, Err: os.ErrNotExist}
	}
	return memInfo{name: filepath.Base(name), size: int64(len(n.data)), dir: n.dir}, nil
}

// SyncDir has nothing to flush in memory.
func (m *memFS) SyncDir(string) error { return nil }

// memFile is an open handle with its own offset.
type memFile struct {
	fs   *memFS
	node *memNode
	off  int64
}

func (f *memFile) Read(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.off >= int64(len(f.node.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.node.data[f.off:])
	f.off += int64(n)
	return n, nil
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if end := f.off + int64(len(p)); end > int64(len(f.node.data)) {
		if end > int64(cap(f.node.data)) {
			grown := make([]byte, end, 2*end)
			copy(grown, f.node.data)
			f.node.data = grown
		}
		f.node.data = f.node.data[:end]
	}
	copy(f.node.data[f.off:], p)
	f.off += int64(len(p))
	return len(p), nil
}

func (f *memFile) Close() error { return nil }

// Sync has nothing to flush in memory; the store still counts the call.
func (f *memFile) Sync() error { return nil }

func (f *memFile) Truncate(size int64) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if size < int64(len(f.node.data)) {
		f.node.data = f.node.data[:size]
	}
	return nil
}

func (f *memFile) Seek(offset int64, whence int) (int64, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	switch whence {
	case io.SeekStart:
	case io.SeekCurrent:
		offset += f.off
	case io.SeekEnd:
		offset += int64(len(f.node.data))
	}
	if offset < 0 {
		return 0, errors.New("memfs: negative seek")
	}
	f.off = offset
	return offset, nil
}

// memInfo is the os.FileInfo of a memNode.
type memInfo struct {
	name string
	size int64
	dir  bool
}

func (i memInfo) Name() string { return i.name }
func (i memInfo) Size() int64  { return i.size }
func (i memInfo) Mode() os.FileMode {
	if i.dir {
		return fs.ModeDir | 0o755
	}
	return 0o644
}
func (i memInfo) ModTime() time.Time { return time.Time{} }
func (i memInfo) IsDir() bool        { return i.dir }
func (i memInfo) Sys() any           { return nil }

// timedFS wraps a store.FS and records an OpenFile, Write, Sync, Rename or
// SyncDir span for every call, under whichever span the replica has set as
// the current store call. Only the single writer goroutine of the traced
// churn-durable replica touches the store, so one parent slot suffices.
type timedFS struct {
	store.FS
	tr     *tracer
	parent spanID
	req    int64
}

func (t *timedFS) OpenFile(name string, flag int, perm os.FileMode) (store.File, error) {
	begin := time.Now()
	f, err := t.FS.OpenFile(name, flag, perm)
	t.tr.record(spanFSOpen, t.parent, t.req, begin)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: f, fs: t}, nil
}

func (t *timedFS) Rename(oldpath, newpath string) error {
	begin := time.Now()
	err := t.FS.Rename(oldpath, newpath)
	t.tr.record(spanFSRename, t.parent, t.req, begin)
	return err
}

func (t *timedFS) SyncDir(name string) error {
	begin := time.Now()
	err := t.FS.SyncDir(name)
	t.tr.record(spanFSSyncDir, t.parent, t.req, begin)
	return err
}

// timedFile records Write and Sync spans of one open file.
type timedFile struct {
	store.File
	fs *timedFS
}

func (f *timedFile) Write(p []byte) (int, error) {
	begin := time.Now()
	n, err := f.File.Write(p)
	f.fs.tr.record(spanFSWrite, f.fs.parent, f.fs.req, begin)
	return n, err
}

func (f *timedFile) Sync() error {
	begin := time.Now()
	err := f.File.Sync()
	f.fs.tr.record(spanFSSync, f.fs.parent, f.fs.req, begin)
	return err
}
