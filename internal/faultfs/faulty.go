package faultfs

import (
	"fmt"
	"io/fs"
	"sync"
	"syscall"
)

// Faulty wraps a base FS and injects deterministic failures. The zero
// plan injects nothing; arm faults with the setters, which may be
// called concurrently with filesystem use (the ENOSPC window of a
// disk-pressure test opens and closes while a job is writing).
//
// Faults are counted across all files opened through the Faulty, so a
// test controls exactly which write or fsync in a whole run fails.
type Faulty struct {
	base FS

	mu         sync.Mutex
	writeLeft  int64 // bytes that may still be written; -1 = unlimited
	free       int64 // what Free reports; -1 = delegate to base
	syncs      int   // fsyncs observed so far
	failSyncAt int   // inject EIO on this (1-based) fsync; 0 = never
	writes     int   // writes observed so far
	tearAt     int   // tear this (1-based) write: half the bytes land, then EIO
	truncFails int   // truncates that will still fail with EIO
}

// NewFaulty wraps base with an initially fault-free plan.
func NewFaulty(base FS) *Faulty {
	return &Faulty{base: base, writeLeft: -1, free: -1}
}

// LimitWrites arms an ENOSPC fault: across all files, after n more
// bytes are written, further writes fail with ENOSPC (a write
// straddling the limit lands its allowed prefix — a torn record).
func (f *Faulty) LimitWrites(n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writeLeft = n
}

// Unlimit lifts a write limit: space has been freed.
func (f *Faulty) Unlimit() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writeLeft = -1
}

// SetFree pins the value Free reports (the disk-headroom signal);
// negative delegates to the base filesystem.
func (f *Faulty) SetFree(n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.free = n
}

// FailSync arms an EIO fault on the kth fsync from now (1-based).
func (f *Faulty) FailSync(k int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.syncs, f.failSyncAt = 0, k
}

// TearWrite arms a torn write: the kth write from now (1-based)
// persists only the first half of its buffer and reports EIO, the
// shape a crash mid-write leaves on disk.
func (f *Faulty) TearWrite(k int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writes, f.tearAt = 0, k
}

// FailTruncate arms EIO faults on the next k truncates: the file keeps
// its length, the shape of a journal that cannot shed a torn tail.
func (f *Faulty) FailTruncate(k int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.truncFails = k
}

func (f *Faulty) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	base, err := f.base.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultyFile{File: base, fs: f}, nil
}

func (f *Faulty) Open(name string) (File, error) { return f.base.Open(name) }

func (f *Faulty) ReadFile(name string) ([]byte, error)         { return f.base.ReadFile(name) }
func (f *Faulty) Remove(name string) error                     { return f.base.Remove(name) }
func (f *Faulty) Rename(oldpath, newpath string) error         { return f.base.Rename(oldpath, newpath) }
func (f *Faulty) MkdirAll(path string, perm fs.FileMode) error { return f.base.MkdirAll(path, perm) }
func (f *Faulty) Glob(pattern string) ([]string, error)        { return f.base.Glob(pattern) }

func (f *Faulty) Free(dir string) (int64, error) {
	f.mu.Lock()
	pinned := f.free
	f.mu.Unlock()
	if pinned >= 0 {
		return pinned, nil
	}
	return f.base.Free(dir)
}

// plan decides the fate of an n-byte write: how many bytes the base
// filesystem receives and the error to report afterwards.
func (f *Faulty) planWrite(n int) (allow int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writes++
	if f.tearAt > 0 && f.writes == f.tearAt {
		return n / 2, fmt.Errorf("faultfs: torn write: %w", syscall.EIO)
	}
	if f.writeLeft < 0 {
		return n, nil
	}
	if int64(n) <= f.writeLeft {
		f.writeLeft -= int64(n)
		return n, nil
	}
	allow = int(f.writeLeft)
	f.writeLeft = 0
	return allow, fmt.Errorf("faultfs: write limit: %w", syscall.ENOSPC)
}

func (f *Faulty) planSync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.syncs++
	if f.failSyncAt > 0 && f.syncs == f.failSyncAt {
		return fmt.Errorf("faultfs: fsync %d: %w", f.syncs, syscall.EIO)
	}
	return nil
}

type faultyFile struct {
	File
	fs *Faulty
}

func (ff *faultyFile) Write(p []byte) (int, error) {
	allow, planned := ff.fs.planWrite(len(p))
	n, err := ff.File.Write(p[:allow])
	if err != nil {
		return n, err
	}
	if planned != nil {
		return n, planned
	}
	return n, nil
}

func (ff *faultyFile) Truncate(size int64) error {
	ff.fs.mu.Lock()
	fail := ff.fs.truncFails > 0
	if fail {
		ff.fs.truncFails--
	}
	ff.fs.mu.Unlock()
	if fail {
		return fmt.Errorf("faultfs: truncate: %w", syscall.EIO)
	}
	return ff.File.Truncate(size)
}

func (ff *faultyFile) Sync() error {
	if err := ff.fs.planSync(); err != nil {
		return err
	}
	return ff.File.Sync()
}
