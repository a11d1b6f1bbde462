// Package chaos is the storage layer's fault boundary: a narrow filesystem
// interface (FS) that the verdict cache's disk tier (internal/cache)
// performs every disk operation through, plus fault-injecting
// implementations that make crash recovery a tested property instead of an
// assumed one.
//
// OS is the production implementation — a zero-cost delegation to package
// os. Faulty wraps any FS with a deterministic fault plan: the Nth eligible
// operation fails with a chosen fault kind (EIO, ENOSPC, a short write that
// persists only a prefix, or a torn rename that leaves a half-copied
// destination), optionally sticky so every later operation fails too —
// modelling a disk that died rather than hiccuped. Monkey layers seeded
// random faults over a workload for property tests.
//
// The injector is deliberately boring: no goroutines, no timing, one atomic
// plan. A property test enumerates fault points by first counting a clean
// run's operations (CountOps), then re-running the workload once per index
// with the fault planted there, and asserting the reopened store lost at
// most the entry being written and never serves corrupt data.
package chaos

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"syscall"
)

// File is the writable-file surface the storage layer needs. os.File
// satisfies it.
type File interface {
	io.Writer
	io.Closer
	// Name returns the path the file was opened under.
	Name() string
	// Sync flushes the file to stable storage.
	Sync() error
}

// FS is the filesystem surface the storage layer runs on. Every operation
// the verdict cache performs goes through it, so a fault-injecting
// implementation can fail any of them deterministically.
type FS interface {
	MkdirAll(path string, perm os.FileMode) error
	// CreateTemp creates a fresh temp file in dir like os.CreateTemp.
	CreateTemp(dir, pattern string) (File, error)
	ReadFile(name string) ([]byte, error)
	ReadDir(name string) ([]fs.DirEntry, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
}

// ---------------------------------------------------------------------- OS

// OS is the production FS: package os, verbatim.
type OS struct{}

func (OS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (OS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }

func (OS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (OS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }

func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (OS) Remove(name string) error { return os.Remove(name) }

// ------------------------------------------------------------------ faults

// Kind selects what an injected fault does.
type Kind int

const (
	// EIO: the operation fails with an I/O error and has no effect.
	EIO Kind = iota
	// ENOSPC: the operation fails with a no-space error and has no effect.
	ENOSPC
	// ShortWrite: a write persists only a prefix of its bytes, then fails —
	// the torn-record case recovery must detect. Non-write operations fail
	// as EIO.
	ShortWrite
	// TornRename: a rename copies only a prefix of the source to the
	// destination, leaves the source behind, and fails — modelling a crash
	// inside a non-atomic rename. Non-rename operations fail as EIO.
	TornRename
)

var kindNames = [...]string{"eio", "enospc", "short-write", "torn-rename"}

func (k Kind) String() string { return kindNames[k] }

// errInjected marks every injected failure so tests can tell planted faults
// from real ones.
var errInjected = errors.New("chaos: injected fault")

// Injected reports whether err came from a chaos injector.
func Injected(err error) bool { return errors.Is(err, errInjected) }

func (k Kind) err(op, name string) error {
	errno := syscall.EIO
	if k == ENOSPC {
		errno = syscall.ENOSPC
	}
	return fmt.Errorf("%s %s: %w: %w", op, name, errInjected, errno)
}

// Plan is a deterministic fault schedule.
type Plan struct {
	// FailAt is the 1-based index of the eligible operation that fails
	// (0 = never). Eligible operations are the mutating ones — mkdir,
	// create, write, sync, rename, remove — plus, when Reads is set,
	// read-path operations.
	FailAt int64
	// Kind is the fault to inject.
	Kind Kind
	// Sticky makes every eligible operation after FailAt fail too — a disk
	// that died, not one that hiccuped.
	Sticky bool
	// Reads includes ReadFile/ReadDir among the eligible operations.
	Reads bool
}

// Faulty wraps an FS with a deterministic fault plan. Safe for concurrent
// use. The zero plan injects nothing, so a Faulty{Inner: fs} is also the
// operation counter used to enumerate fault points.
type Faulty struct {
	Inner FS

	mu         sync.Mutex
	plan       Plan
	ops        int64
	faults     int64
	alwaysFail bool
}

// NewFaulty wraps inner with plan.
func NewFaulty(inner FS, plan Plan) *Faulty { return &Faulty{Inner: inner, plan: plan} }

// Ops returns how many eligible operations have been observed.
func (f *Faulty) Ops() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// Faults returns how many operations were failed by injection.
func (f *Faulty) Faults() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.faults
}

// SetAlwaysFail toggles unconditional failure of every eligible operation —
// the circuit-breaker test mode: the disk stays dead until healed.
func (f *Faulty) SetAlwaysFail(v bool) {
	f.mu.Lock()
	f.alwaysFail = v
	f.mu.Unlock()
}

// step counts one eligible operation and reports whether it must fail.
func (f *Faulty) step(read bool) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if read && !f.plan.Reads && !f.alwaysFail {
		return false
	}
	f.ops++
	fail := f.alwaysFail ||
		(f.plan.FailAt > 0 && (f.ops == f.plan.FailAt || (f.plan.Sticky && f.ops > f.plan.FailAt)))
	if fail {
		f.faults++
	}
	return fail
}

func (f *Faulty) MkdirAll(path string, perm os.FileMode) error {
	if f.step(false) {
		return f.plan.Kind.err("mkdir", path)
	}
	return f.Inner.MkdirAll(path, perm)
}

func (f *Faulty) CreateTemp(dir, pattern string) (File, error) {
	if f.step(false) {
		return nil, f.plan.Kind.err("create", dir)
	}
	file, err := f.Inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultyFile{inner: file, fs: f}, nil
}

func (f *Faulty) ReadFile(name string) ([]byte, error) {
	if f.step(true) {
		return nil, f.plan.Kind.err("read", name)
	}
	return f.Inner.ReadFile(name)
}

func (f *Faulty) ReadDir(name string) ([]fs.DirEntry, error) {
	if f.step(true) {
		return nil, f.plan.Kind.err("readdir", name)
	}
	return f.Inner.ReadDir(name)
}

func (f *Faulty) Rename(oldpath, newpath string) error {
	if f.step(false) {
		if f.plan.Kind == TornRename {
			f.tearRename(oldpath, newpath)
		}
		return f.plan.Kind.err("rename", oldpath)
	}
	return f.Inner.Rename(oldpath, newpath)
}

// tearRename simulates a crash inside a non-atomic rename: the destination
// receives a prefix of the source under its final name. It writes through
// Inner directly, so the tear itself is neither counted nor faulted. Best
// effort — the point is to plant a plausible corruption for recovery to
// catch.
func (f *Faulty) tearRename(oldpath, newpath string) {
	data, err := f.Inner.ReadFile(oldpath)
	if err != nil {
		return
	}
	tmp, err := f.Inner.CreateTemp(filepath.Dir(newpath), ".tmp-*")
	if err != nil {
		return
	}
	_, werr := tmp.Write(data[:len(data)/2])
	if cerr := tmp.Close(); werr != nil || cerr != nil || f.Inner.Rename(tmp.Name(), newpath) != nil {
		f.Inner.Remove(tmp.Name())
	}
}

func (f *Faulty) Remove(name string) error {
	if f.step(false) {
		return f.plan.Kind.err("remove", name)
	}
	return f.Inner.Remove(name)
}

// faultyFile routes writes and syncs through the plan. Close is
// never injected: a failing close adds no recovery case the write faults
// don't already cover, and failing it would leak descriptors in tests.
type faultyFile struct {
	inner File
	fs    *Faulty
}

func (f *faultyFile) Name() string { return f.inner.Name() }

func (f *faultyFile) Close() error { return f.inner.Close() }

func (f *faultyFile) Write(p []byte) (int, error) {
	if f.fs.step(false) {
		if f.fs.plan.Kind == ShortWrite && len(p) > 0 {
			n, _ := f.inner.Write(p[:(len(p)+1)/2])
			return n, f.fs.plan.Kind.err("write", f.inner.Name())
		}
		return 0, f.fs.plan.Kind.err("write", f.inner.Name())
	}
	return f.inner.Write(p)
}

func (f *faultyFile) Sync() error {
	if f.fs.step(false) {
		return f.fs.plan.Kind.err("sync", f.inner.Name())
	}
	return f.inner.Sync()
}

// CountOps runs workload against a counting (never-failing) wrapper of
// inner and returns how many eligible operations it performed — the fault
// points a property test then enumerates. reads selects whether read-path
// operations count.
func CountOps(inner FS, reads bool, workload func(FS)) int64 {
	f := NewFaulty(inner, Plan{Reads: reads})
	workload(f)
	return f.Ops()
}

// ------------------------------------------------------------------ monkey

// Monkey wraps an FS with seeded random faults: every eligible operation
// fails with probability prob, with a random fault kind. Deterministic for
// a given seed and operation sequence. Safe for concurrent use, but
// concurrent workloads make the fault sequence schedule-dependent.
type Monkey struct {
	Inner FS

	mu     sync.Mutex
	rng    *rand.Rand
	prob   float64
	reads  bool
	faults int64
}

// NewMonkey builds a random-fault FS over inner. reads selects whether
// read-path operations are eligible.
func NewMonkey(inner FS, seed int64, prob float64, reads bool) *Monkey {
	return &Monkey{Inner: inner, rng: rand.New(rand.NewSource(seed)), prob: prob, reads: reads}
}

// Faults returns how many operations were failed by injection.
func (m *Monkey) Faults() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.faults
}

// roll decides one operation's fate; kind is only meaningful when it fails.
func (m *Monkey) roll(read bool) (Kind, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if read && !m.reads {
		return 0, false
	}
	if m.rng.Float64() >= m.prob {
		return 0, false
	}
	m.faults++
	return Kind(m.rng.Intn(int(TornRename) + 1)), true
}

func (m *Monkey) MkdirAll(path string, perm os.FileMode) error {
	if k, fail := m.roll(false); fail {
		return k.err("mkdir", path)
	}
	return m.Inner.MkdirAll(path, perm)
}

func (m *Monkey) CreateTemp(dir, pattern string) (File, error) {
	if k, fail := m.roll(false); fail {
		return nil, k.err("create", dir)
	}
	file, err := m.Inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &monkeyFile{inner: file, fs: m}, nil
}

func (m *Monkey) ReadFile(name string) ([]byte, error) {
	if k, fail := m.roll(true); fail {
		return nil, k.err("read", name)
	}
	return m.Inner.ReadFile(name)
}

func (m *Monkey) ReadDir(name string) ([]fs.DirEntry, error) {
	if k, fail := m.roll(true); fail {
		return nil, k.err("readdir", name)
	}
	return m.Inner.ReadDir(name)
}

func (m *Monkey) Rename(oldpath, newpath string) error {
	k, fail := m.roll(false)
	if !fail {
		return m.Inner.Rename(oldpath, newpath)
	}
	if k == TornRename {
		(&Faulty{Inner: m.Inner}).tearRename(oldpath, newpath)
	}
	return k.err("rename", oldpath)
}

func (m *Monkey) Remove(name string) error {
	if k, fail := m.roll(false); fail {
		return k.err("remove", name)
	}
	return m.Inner.Remove(name)
}

type monkeyFile struct {
	inner File
	fs    *Monkey
}

func (f *monkeyFile) Name() string { return f.inner.Name() }

func (f *monkeyFile) Close() error { return f.inner.Close() }

func (f *monkeyFile) Write(p []byte) (int, error) {
	if k, fail := f.fs.roll(false); fail {
		if k == ShortWrite && len(p) > 0 {
			n, _ := f.inner.Write(p[:(len(p)+1)/2])
			return n, k.err("write", f.inner.Name())
		}
		return 0, k.err("write", f.inner.Name())
	}
	return f.inner.Write(p)
}

func (f *monkeyFile) Sync() error {
	if k, fail := f.fs.roll(false); fail {
		return k.err("sync", f.inner.Name())
	}
	return f.inner.Sync()
}
