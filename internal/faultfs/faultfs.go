// Package faultfs abstracts the filesystem operations the durability
// layer (internal/journal, internal/jobs) performs, so tests can
// inject deterministic faults — ENOSPC after N bytes, EIO on the Kth
// fsync, torn writes, failing truncates — and pin the degraded-mode
// behaviour of the pipeline instead of hoping for it. Production code
// passes OS, a thin passthrough to package os.
package faultfs

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"vadasa/internal/govern"
)

// File is the subset of *os.File the durability layer uses.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	io.Seeker
	Sync() error
	Truncate(size int64) error
}

// FS is the filesystem surface accepted by journal writers and the job
// manager. Implementations must be safe for concurrent use.
type FS interface {
	// OpenFile opens with the given flags, like os.OpenFile.
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	// Open opens for reading, like os.Open.
	Open(name string) (File, error)
	// ReadFile reads a whole file, like os.ReadFile.
	ReadFile(name string) ([]byte, error)
	// Remove deletes a file, like os.Remove.
	Remove(name string) error
	// Rename moves a file, replacing the target, like os.Rename.
	Rename(oldpath, newpath string) error
	// MkdirAll creates a directory tree, like os.MkdirAll.
	MkdirAll(path string, perm fs.FileMode) error
	// Glob matches files, like filepath.Glob.
	Glob(pattern string) ([]string, error)
	// Free reports the free bytes available on the filesystem holding
	// dir, for disk-headroom checks. Implementations that cannot
	// measure return a negative value and no error; callers skip the
	// check.
	Free(dir string) (int64, error)
}

// OS is the real filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Open(name string) (File, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) Glob(pattern string) ([]string, error)        { return filepath.Glob(pattern) }

func (osFS) Free(dir string) (int64, error) {
	n, err := govern.DiskFree(dir)
	if err != nil {
		return -1, nil // unmeasurable platform: skip headroom checks
	}
	return n, nil
}

// WriteFileDurable makes path hold exactly b, durably (see WriteDurable).
func WriteFileDurable(fsys FS, path string, b []byte) error {
	return WriteDurable(fsys, path, func(w io.Writer) error { _, err := w.Write(b); return err })
}

// WriteDurable makes path hold exactly what write writes to it, durably: the
// bytes go to a temporary name and are fsynced there, the file is renamed into
// place, and the directory is fsynced, so a record journaled afterwards can
// never refer to bytes the disk lost. A failure at any step — write's own
// error included — leaves path as it was before the call (absent, when it did
// not exist) and no temporary file behind.
func WriteDurable(fsys FS, path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	err := writeSynced(fsys, tmp, write)
	if err == nil {
		err = fsys.Rename(tmp, path)
	}
	if err != nil {
		fsys.Remove(tmp)
		return err
	}
	if dir, err := fsys.Open(filepath.Dir(path)); err == nil {
		dir.Sync()
		dir.Close()
	}
	return nil
}

func writeSynced(fsys FS, name string, write func(io.Writer) error) error {
	f, err := fsys.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
