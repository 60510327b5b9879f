package store

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// MemFS is an in-memory FS that models the durability contract the
// store depends on: every file keeps two images — what the process
// sees (data) and what would survive a power cut (synced). Writes
// touch only data; Sync promotes data to synced; Crash throws away
// everything unsynced, deleting files that were never synced at all.
// Rename is modeled as atomic and immediately durable (the journaled-
// metadata behavior the manifest protocol assumes).
//
// Fault hooks (WriteHook, SyncHook, RenameHook) intercept operations
// to inject short writes, write errors, and sync failures at
// programmable points. Hooks are called with the MemFS lock held, so
// they must not call back into the filesystem. Set hooks before
// handing the FS to a Store; mutating them mid-flight races.
type MemFS struct {
	// WriteHook, if set, is consulted before each write with the file
	// name and the pending bytes; it returns how many bytes to accept
	// and an optional error. n < len(p) models a short write: the
	// prefix still lands in the file image.
	WriteHook func(name string, p []byte) (n int, err error)
	// SyncHook, if set, may fail a Sync; on error nothing is promoted
	// to the durable image.
	SyncHook func(name string) error
	// RenameHook, if set, may fail a Rename before it takes effect.
	RenameHook func(oldpath, newpath string) error

	mu    sync.Mutex
	files map[string]*memNode
}

type memNode struct {
	data   []byte
	synced []byte
	// everSynced distinguishes "created this power cycle, never
	// synced" (file vanishes on crash) from "synced empty".
	everSynced bool
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS { return &MemFS{files: make(map[string]*memNode)} }

func (m *MemFS) MkdirAll(path string) error { return nil }

func (m *MemFS) OpenFile(name string, flag int) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	node := m.files[name]
	switch {
	case flag&os.O_WRONLY != 0:
		if flag&os.O_CREATE == 0 && node == nil {
			return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
		}
		if node == nil {
			node = &memNode{}
			m.files[name] = node
		}
		if flag&os.O_TRUNC != 0 {
			node.data = nil
		}
		return &memFile{fs: m, name: name, node: node, writable: true}, nil
	default: // read-only
		if node == nil {
			return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
		}
		return &memFile{fs: m, name: name, node: node}, nil
	}
}

func (m *MemFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.RenameHook != nil {
		if err := m.RenameHook(oldpath, newpath); err != nil {
			return err
		}
	}
	node := m.files[oldpath]
	if node == nil {
		return &fs.PathError{Op: "rename", Path: oldpath, Err: fs.ErrNotExist}
	}
	delete(m.files, oldpath)
	// Atomic and durable: the renamed file carries its current data as
	// the surviving image (rename barriers on journaling filesystems).
	m.files[newpath] = &memNode{
		data:       append([]byte(nil), node.data...),
		synced:     append([]byte(nil), node.data...),
		everSynced: true,
	}
	return nil
}

func (m *MemFS) Truncate(name string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	node := m.files[name]
	if node == nil {
		return &fs.PathError{Op: "truncate", Path: name, Err: fs.ErrNotExist}
	}
	if size < 0 || size > int64(len(node.data)) {
		return fmt.Errorf("memfs: truncate %s to %d bytes (have %d)", name, size, len(node.data))
	}
	node.data = node.data[:size]
	if int64(len(node.synced)) > size {
		node.synced = node.synced[:size]
	}
	return nil
}

// Crash simulates a power cut: every file reverts to its last synced
// image, and files that were never synced disappear. Open handles from
// before the crash keep working against the revived images (the tests
// reopen through the store anyway).
func (m *MemFS) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for name, node := range m.files {
		if !node.everSynced {
			delete(m.files, name)
			continue
		}
		node.data = append([]byte(nil), node.synced...)
	}
}

// Bytes returns a copy of a file's current (volatile) content, or nil
// if absent.
func (m *MemFS) Bytes(name string) []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	node := m.files[name]
	if node == nil {
		return nil
	}
	return append([]byte(nil), node.data...)
}

// SetBytes replaces a file's content, marking it fully synced — the
// handle tests use to plant arbitrary (e.g. truncated or corrupted)
// segment images.
func (m *MemFS) SetBytes(name string, b []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[name] = &memNode{
		data:       append([]byte(nil), b...),
		synced:     append([]byte(nil), b...),
		everSynced: true,
	}
}

type memFile struct {
	fs       *MemFS
	name     string
	node     *memNode
	off      int
	writable bool
	closed   bool
}

func (f *memFile) Read(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return 0, fs.ErrClosed
	}
	if f.off >= len(f.node.data) {
		return 0, io.EOF
	}
	n := copy(p, f.node.data[f.off:])
	f.off += n
	return n, nil
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return 0, fs.ErrClosed
	}
	if !f.writable {
		return 0, fmt.Errorf("memfs: %s opened read-only", f.name)
	}
	n, err := len(p), error(nil)
	if f.fs.WriteHook != nil {
		n, err = f.fs.WriteHook(f.name, p)
		if n > len(p) {
			n = len(p)
		}
	}
	f.node.data = append(f.node.data, p[:n]...)
	if err == nil && n < len(p) {
		err = io.ErrShortWrite
	}
	return n, err
}

func (f *memFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return fs.ErrClosed
	}
	if f.fs.SyncHook != nil {
		if err := f.fs.SyncHook(f.name); err != nil {
			return err
		}
	}
	f.node.synced = append([]byte(nil), f.node.data...)
	f.node.everSynced = true
	return nil
}

func (f *memFile) Stat() (fs.FileInfo, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return nil, fs.ErrClosed
	}
	return memFileInfo{name: filepath.Base(f.name), size: int64(len(f.node.data))}, nil
}

// memFileInfo is the fs.FileInfo of a MemFS file: a regular file whose
// size is its current (volatile) image.
type memFileInfo struct {
	name string
	size int64
}

func (fi memFileInfo) Name() string       { return fi.name }
func (fi memFileInfo) Size() int64        { return fi.size }
func (fi memFileInfo) Mode() fs.FileMode  { return 0o644 }
func (fi memFileInfo) ModTime() time.Time { return time.Time{} }
func (fi memFileInfo) IsDir() bool        { return false }
func (fi memFileInfo) Sys() any           { return nil }

func (f *memFile) Close() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.closed = true
	return nil
}
