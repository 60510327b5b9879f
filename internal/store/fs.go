// Package store is the durable home of a generated study: an
// append-only segment file of checksummed frames holding the sealed
// per-epoch column blocks and collector state (core.StudyMaterial),
// plus a tiny manifest — atomically replaced on every update — that
// records how far the streaming engine has ingested. Opening the
// store validates every frame, truncates a torn tail at the last
// valid frame boundary, and reports either a fully recovered study
// (generation can be skipped entirely) or nothing usable (the caller
// regenerates deterministically and rewrites the segment). All I/O
// goes through the FS interface so tests can inject crashes, short
// writes, and sync failures at programmable points (MemFS).
package store

import (
	"errors"
	"io"
	"io/fs"
	"os"
)

// FS is the slice of a filesystem the store needs. Implementations
// must make Rename atomic with respect to crashes (the manifest
// update protocol relies on it); POSIX rename on a journaling
// filesystem qualifies.
type FS interface {
	MkdirAll(path string) error
	// OpenFile opens a file with os-style flags (os.O_RDONLY, or
	// os.O_WRONLY|os.O_CREATE|os.O_TRUNC). Opening a missing file for
	// reading returns an error satisfying errors.Is(err, fs.ErrNotExist).
	OpenFile(name string, flag int) (File, error)
	Rename(oldpath, newpath string) error
	// Truncate shrinks a file to size bytes (used to cut a torn tail
	// back to the last valid frame boundary).
	Truncate(name string, size int64) error
}

// File is one open store file.
type File interface {
	io.Reader
	io.Writer
	// Sync forces written data to stable storage; until it returns,
	// writes may be lost by a crash.
	Sync() error
	// Stat reports the file's metadata; readers use its size to read a
	// whole file into one exactly sized buffer.
	Stat() (fs.FileInfo, error)
	Close() error
}

// DirFS returns the real-filesystem implementation rooted at the
// process working directory (names are passed straight to the os
// package, so absolute and relative paths both work).
func DirFS() FS { return osFS{} }

type osFS struct{}

func (osFS) MkdirAll(path string) error { return os.MkdirAll(path, 0o755) }

func (osFS) OpenFile(name string, flag int) (File, error) {
	f, err := os.OpenFile(name, flag, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error   { return os.Rename(oldpath, newpath) }
func (osFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

// readFile reads a whole file through an FS, distinguishing "absent"
// (nil, nil) from real errors. The buffer is sized from Stat, so a
// segment of tens of megabytes is read with one allocation instead of
// a chain of doublings; a file that grew since Stat still reads whole.
func readFile(fsys FS, name string) ([]byte, error) {
	f, err := fsys.OpenFile(name, os.O_RDONLY)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	// One spare byte lets the read that reports EOF land without growth.
	buf := make([]byte, 0, st.Size()+1)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := f.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}
