package faultfs

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

func create(t *testing.T, fsys FS, name string) File {
	t.Helper()
	f, err := fsys.OpenFile(name, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatalf("open %s: %v", name, err)
	}
	return f
}

func TestOSPassthrough(t *testing.T) {
	dir := t.TempDir()
	name := filepath.Join(dir, "a.txt")
	f := create(t, OS, name)
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	b, err := OS.ReadFile(name)
	if err != nil || string(b) != "hello" {
		t.Fatalf("read back %q, %v", b, err)
	}
	free, err := OS.Free(dir)
	if err != nil {
		t.Fatalf("free: %v", err)
	}
	if free == 0 {
		t.Fatal("Free reported an exactly full disk on a writable tempdir")
	}
	matches, err := OS.Glob(filepath.Join(dir, "*.txt"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("glob = %v, %v", matches, err)
	}
}

// ENOSPC lands after exactly N bytes; the straddling write persists
// its allowed prefix (a torn record) and Unlimit reopens the volume.
func TestWriteLimitENOSPC(t *testing.T) {
	dir := t.TempDir()
	faulty := NewFaulty(OS)
	name := filepath.Join(dir, "j")
	f := create(t, faulty, name)
	defer f.Close()

	faulty.LimitWrites(10)
	if _, err := f.Write([]byte("12345678")); err != nil {
		t.Fatalf("write within limit: %v", err)
	}
	_, err := f.Write([]byte("abcdef"))
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("straddling write err = %v, want ENOSPC", err)
	}
	if b, _ := os.ReadFile(name); string(b) != "12345678ab" {
		t.Fatalf("on-disk bytes %q, want torn prefix %q", b, "12345678ab")
	}
	if _, err := f.Write([]byte("x")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("post-limit write err = %v, want ENOSPC", err)
	}
	faulty.Unlimit()
	if _, err := f.Write([]byte("ok")); err != nil {
		t.Fatalf("write after Unlimit: %v", err)
	}
}

func TestFailSyncEIO(t *testing.T) {
	dir := t.TempDir()
	faulty := NewFaulty(OS)
	f := create(t, faulty, filepath.Join(dir, "j"))
	defer f.Close()

	faulty.FailSync(2)
	if err := f.Sync(); err != nil {
		t.Fatalf("sync 1: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("sync 2 err = %v, want EIO", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync 3: %v", err)
	}
}

func TestTornWrite(t *testing.T) {
	dir := t.TempDir()
	faulty := NewFaulty(OS)
	name := filepath.Join(dir, "j")
	f := create(t, faulty, name)
	defer f.Close()

	faulty.TearWrite(2)
	if _, err := f.Write([]byte("first\n")); err != nil {
		t.Fatalf("write 1: %v", err)
	}
	_, err := f.Write([]byte("toolongtosurvive"))
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("torn write err = %v, want EIO", err)
	}
	b, _ := os.ReadFile(name)
	if string(b) != "first\ntoolongt" {
		t.Fatalf("on-disk bytes %q, want half of the second write", b)
	}
}

func TestSetFree(t *testing.T) {
	dir := t.TempDir()
	faulty := NewFaulty(OS)
	faulty.SetFree(123)
	if n, err := faulty.Free(dir); err != nil || n != 123 {
		t.Fatalf("pinned free = %d, %v", n, err)
	}
	faulty.SetFree(-1)
	if n, err := faulty.Free(dir); err != nil || n <= 0 {
		t.Fatalf("delegated free = %d, %v", n, err)
	}
}

// WriteFileDurable either leaves the full bytes at path or leaves path
// untouched: a failed fsync must not leave a file a later journal record
// could point at.
func TestWriteFileDurable(t *testing.T) {
	dir := t.TempDir()
	faulty := NewFaulty(OS)
	path := filepath.Join(dir, "out.csv")

	faulty.FailSync(1)
	if err := WriteFileDurable(faulty, path, []byte("a,b\n")); !errors.Is(err, syscall.EIO) {
		t.Fatalf("failing fsync: err = %v, want EIO", err)
	}
	if left, _ := OS.Glob(filepath.Join(dir, "*")); len(left) != 0 {
		t.Fatalf("failed write left %v behind", left)
	}

	if err := WriteFileDurable(faulty, path, []byte("a,b\n")); err != nil {
		t.Fatal(err)
	}
	faulty.LimitWrites(2)
	if err := WriteFileDurable(faulty, path, []byte("c,d,e\n")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("full volume: err = %v, want ENOSPC", err)
	}
	if b, err := OS.ReadFile(path); err != nil || string(b) != "a,b\n" {
		t.Fatalf("failed overwrite changed the file: %q, %v", b, err)
	}
	if left, _ := OS.Glob(filepath.Join(dir, "*")); len(left) != 1 {
		t.Fatalf("failed overwrite left %v behind", left)
	}
}

// A streamed durable write that fails — in the writer function, or on a volume
// that fills mid-stream — leaves neither the file nor its temporary behind.
func TestWriteDurableFailingWriter(t *testing.T) {
	dir := t.TempDir()
	faulty := NewFaulty(OS)
	path := filepath.Join(dir, "out.csv")
	chunks := func(w io.Writer) error {
		for i := 0; i < 4; i++ {
			if _, err := w.Write([]byte("a,b,c\n")); err != nil {
				return err
			}
		}
		return nil
	}
	failed := errors.New("release cannot be written")
	for _, c := range []struct {
		name  string
		limit int64
		write func(io.Writer) error
		want  error
	}{
		{"writer error", -1, func(w io.Writer) error {
			if err := chunks(w); err != nil {
				return err
			}
			return failed
		}, failed},
		{"ENOSPC mid-stream", 15, chunks, syscall.ENOSPC},
	} {
		if c.limit >= 0 {
			faulty.LimitWrites(c.limit)
		}
		if err := WriteDurable(faulty, path, c.write); !errors.Is(err, c.want) {
			t.Fatalf("%s: err = %v, want %v", c.name, err, c.want)
		}
		faulty.Unlimit()
		if left, _ := OS.Glob(filepath.Join(dir, "*")); len(left) != 0 {
			t.Fatalf("%s: failed write left %v behind", c.name, left)
		}
	}
	if err := WriteDurable(faulty, path, chunks); err != nil {
		t.Fatal(err)
	}
	if b, err := OS.ReadFile(path); err != nil || string(b) != strings.Repeat("a,b,c\n", 4) {
		t.Fatalf("streamed file holds %q, %v", b, err)
	}
}
