package faultfs

import (
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"sync"
	"syscall"
)

// Kind is the class of fault a plan delivers.
type Kind uint8

const (
	// ShortWrite lands a prefix of the triggering write and returns EIO
	// — the classic torn write.
	ShortWrite Kind = iota
	// ErrIO fails the triggering operation with EIO; for a write,
	// nothing lands.
	ErrIO
	// NoSpace lands a prefix of the triggering write and returns ENOSPC
	// (the filesystem filled up mid-write).
	NoSpace
	// Crash models power loss at the triggering operation: a write
	// lands only a prefix; a sync additionally truncates the file back
	// to its last successfully synced size (the unsynced page cache is
	// gone). After a crash every subsequent operation on the FS fails
	// with ErrCrashed — the machine is off.
	Crash
)

func (k Kind) String() string {
	switch k {
	case ShortWrite:
		return "short-write"
	case ErrIO:
		return "eio"
	case NoSpace:
		return "enospc"
	case Crash:
		return "crash"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Target selects which operation class the plan fires on.
type Target uint8

const (
	// AnyOp fires on the After-th faultable operation of any class the
	// kind can act on (ShortWrite and NoSpace skip syncs).
	AnyOp Target = iota
	// RecordWrite fires on a non-first write to a created file — a log
	// record batch, past the segment header.
	RecordWrite
	// HeaderWrite fires on the first write to a freshly created file —
	// the segment header, i.e. mid-rotation once the injector is armed
	// after Open.
	HeaderWrite
	// FileSync fires on a Sync call (segment fsync, snapshot fsync, or
	// directory fsync).
	FileSync
	// SnapshotWrite fires on WriteFile — a shard image or the manifest
	// temp file.
	SnapshotWrite
)

func (t Target) String() string {
	switch t {
	case AnyOp:
		return "any"
	case RecordWrite:
		return "record-write"
	case HeaderWrite:
		return "header-write"
	case FileSync:
		return "fsync"
	case SnapshotWrite:
		return "snapshot-write"
	}
	return fmt.Sprintf("target(%d)", uint8(t))
}

// Injected errors. EIO and ENOSPC faults wrap the real errno, so
// errors.Is(err, syscall.EIO) and errors.Is(err, syscall.ENOSPC) hold
// through every layer above.
var (
	// ErrCrashed is returned by every operation after a Crash fault
	// fired: the simulated machine has lost power.
	ErrCrashed = errors.New("faultfs: crashed (simulated power loss)")
)

func errInjected(errno syscall.Errno) error {
	return fmt.Errorf("faultfs: injected fault: %w", errno)
}

// Plan is one scheduled fault: fire Kind on the (After+1)-th operation
// matching Target once the injector is armed. Cut, in [0,1), picks how
// much of the triggering write lands for the partial-write kinds.
type Plan struct {
	Kind   Kind
	Target Target
	After  int
	Cut    float64
}

func (p Plan) String() string {
	return fmt.Sprintf("%v@%v+%d cut=%.2f", p.Kind, p.Target, p.After, p.Cut)
}

// matches reports whether an operation of class t can trigger the plan.
// ShortWrite and NoSpace need bytes to cut, so under AnyOp they skip
// pure syncs.
func (p Plan) matches(t Target) bool {
	if p.Target != AnyOp {
		return p.Target == t
	}
	if p.Kind == ShortWrite || p.Kind == NoSpace {
		return t != FileSync
	}
	return true
}

// PlanForSeed derives a deterministic fault schedule from a seed.
// horizon bounds the trigger position: the plan fires within the first
// horizon matching operations (callers size it well under the number of
// faultable operations a run performs, so every seeded run faults).
// crashProb is the probability the fault is a full power-loss Crash
// rather than a survivable disk error.
func PlanForSeed(seed int64, horizon int, crashProb float64) Plan {
	rng := rand.New(rand.NewSource(seed ^ 0x0F7A_0175)) // decorrelate from workload rngs
	if horizon < 1 {
		horizon = 1
	}
	p := Plan{After: rng.Intn(horizon), Cut: rng.Float64()}
	if rng.Float64() < crashProb {
		p.Kind = Crash
	} else {
		p.Kind = []Kind{ShortWrite, ErrIO, NoSpace}[rng.Intn(3)]
	}
	switch rng.Intn(5) {
	case 0:
		p.Target = AnyOp
	case 1:
		p.Target = RecordWrite
	case 2:
		p.Target = FileSync
		if p.Kind == ShortWrite {
			p.Kind = ErrIO // nothing to cut on a sync
		}
	case 3:
		// Rotations are much rarer than writes; aim early so the plan
		// still fires within a bounded run.
		p.Target = HeaderWrite
		p.After = rng.Intn(3)
	case 4:
		// Snapshot-file writes (shard images, manifest temp files) only
		// happen at periodic cuts; aim early enough that a run with a
		// handful of cuts still reaches the trigger.
		p.Target = SnapshotWrite
		p.After = rng.Intn(6)
	}
	return p
}

// Injector is an FS that delivers one planned fault and, for Crash,
// latches every later operation into failure. It is safe for concurrent
// use; faultable operations are serialized through its mutex (fine for
// a test harness — the WAL has a single log goroutine anyway).
//
// The injector performs real I/O through its inner FS, so a directory
// driven through an injector can afterwards be recovered with OS: what
// "survived the fault" is exactly what is on disk.
type Injector struct {
	inner FS
	plan  Plan

	mu      sync.Mutex
	armed   bool
	fired   bool
	firedOn string
	crashed bool
	seen    int
}

// NewInjector wraps inner with the given plan. The injector starts
// disarmed: operations pass through uncounted until Arm, so recovery
// and setup I/O do not consume the schedule.
func NewInjector(inner FS, plan Plan) *Injector {
	return &Injector{inner: inner, plan: plan}
}

// Arm starts counting faultable operations against the plan.
func (inj *Injector) Arm() {
	inj.mu.Lock()
	inj.armed = true
	inj.mu.Unlock()
}

// Fired reports whether the planned fault has been delivered, and on
// what operation.
func (inj *Injector) Fired() (bool, string) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.fired, inj.firedOn
}

// Plan returns the injector's schedule.
func (inj *Injector) Plan() Plan { return inj.plan }

// fires consumes one matching operation and reports whether the plan
// triggers on it. Callers hold inj.mu.
func (inj *Injector) fires(t Target, desc string) bool {
	if !inj.armed || inj.fired || !inj.plan.matches(t) {
		return false
	}
	if inj.seen < inj.plan.After {
		inj.seen++
		return false
	}
	inj.fired = true
	inj.firedOn = fmt.Sprintf("%v on %s", inj.plan, desc)
	return true
}

// cut returns how many of n bytes land for a partial-write fault:
// strictly fewer than n (when n > 0), at least 0.
func (p Plan) cut(n int) int {
	c := int(p.Cut * float64(n))
	if c >= n {
		c = n - 1
	}
	if c < 0 {
		c = 0
	}
	return c
}

// injFile wraps a File. Files created through OpenFile are "tracked":
// the injector knows their size and last synced size, so a Crash at a
// sync point can drop the unsynced tail like a real power loss.
type injFile struct {
	inj     *Injector
	f       File
	name    string
	tracked bool  // created via OpenFile: fresh, append-only
	wrote   bool  // a Write has happened (header already written)
	size    int64 // bytes written (tracked files only)
	synced  int64 // size at the last successful Sync
}

func (w *injFile) Write(p []byte) (int, error) {
	inj := w.inj
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if inj.crashed {
		return 0, ErrCrashed
	}
	t := RecordWrite
	if w.tracked && !w.wrote {
		t = HeaderWrite
	}
	w.wrote = true
	if inj.fires(t, fmt.Sprintf("write(%s, %d bytes)", w.name, len(p))) {
		switch inj.plan.Kind {
		case ErrIO:
			return 0, errInjected(syscall.EIO)
		case ShortWrite, NoSpace, Crash:
			c := inj.plan.cut(len(p))
			n, _ := w.f.Write(p[:c])
			w.size += int64(n)
			if inj.plan.Kind == NoSpace {
				return n, errInjected(syscall.ENOSPC)
			}
			if inj.plan.Kind == Crash {
				inj.crashed = true
				return n, ErrCrashed
			}
			return n, errInjected(syscall.EIO)
		}
	}
	n, err := w.f.Write(p)
	w.size += int64(n)
	return n, err
}

func (w *injFile) Sync() error {
	inj := w.inj
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if inj.crashed {
		return ErrCrashed
	}
	if inj.fires(FileSync, fmt.Sprintf("sync(%s)", w.name)) {
		switch inj.plan.Kind {
		case NoSpace:
			return errInjected(syscall.ENOSPC)
		case Crash:
			// Power loss before the flush completed: the bytes written
			// since the last successful sync were only in page cache.
			if w.tracked {
				w.f.Sync() // flush so the truncate below is the on-disk truth
				inj.inner.Truncate(w.name, w.synced)
			}
			inj.crashed = true
			return ErrCrashed
		default:
			return errInjected(syscall.EIO)
		}
	}
	err := w.f.Sync()
	if err == nil {
		w.synced = w.size
	}
	return err
}

func (w *injFile) Close() error {
	// Closing is not a faultable operation; after a crash the handle is
	// simply gone.
	return w.f.Close()
}

func (inj *Injector) dead() bool {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.crashed
}

func (inj *Injector) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if inj.dead() {
		return nil, ErrCrashed
	}
	f, err := inj.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &injFile{inj: inj, f: f, name: name, tracked: true}, nil
}

func (inj *Injector) Open(name string) (File, error) {
	if inj.dead() {
		return nil, ErrCrashed
	}
	f, err := inj.inner.Open(name)
	if err != nil {
		return nil, err
	}
	// Opened (not created) handles are sync-only in the WAL; their
	// on-disk size is unknown here, so a Crash at their sync latches
	// without rewinding.
	return &injFile{inj: inj, f: f, name: name, wrote: true}, nil
}

func (inj *Injector) WriteFile(name string, data []byte, perm os.FileMode) error {
	inj.mu.Lock()
	if inj.crashed {
		inj.mu.Unlock()
		return ErrCrashed
	}
	if inj.fires(SnapshotWrite, fmt.Sprintf("writefile(%s, %d bytes)", name, len(data))) {
		plan := inj.plan
		switch plan.Kind {
		case ErrIO:
			inj.mu.Unlock()
			return errInjected(syscall.EIO)
		default:
			c := plan.cut(len(data))
			crash := plan.Kind == Crash
			if crash {
				inj.crashed = true
			}
			inj.mu.Unlock()
			inj.inner.WriteFile(name, data[:c], perm)
			if crash {
				return ErrCrashed
			}
			if plan.Kind == NoSpace {
				return errInjected(syscall.ENOSPC)
			}
			return errInjected(syscall.EIO)
		}
	}
	inj.mu.Unlock()
	return inj.inner.WriteFile(name, data, perm)
}

func (inj *Injector) ReadFile(name string) ([]byte, error) {
	if inj.dead() {
		return nil, ErrCrashed
	}
	return inj.inner.ReadFile(name)
}

func (inj *Injector) Rename(oldpath, newpath string) error {
	if inj.dead() {
		return ErrCrashed
	}
	return inj.inner.Rename(oldpath, newpath)
}

func (inj *Injector) Remove(name string) error {
	if inj.dead() {
		return ErrCrashed
	}
	return inj.inner.Remove(name)
}

func (inj *Injector) ReadDir(name string) ([]fs.DirEntry, error) {
	if inj.dead() {
		return nil, ErrCrashed
	}
	return inj.inner.ReadDir(name)
}

func (inj *Injector) MkdirAll(path string, perm os.FileMode) error {
	if inj.dead() {
		return ErrCrashed
	}
	return inj.inner.MkdirAll(path, perm)
}

func (inj *Injector) Truncate(name string, size int64) error {
	if inj.dead() {
		return ErrCrashed
	}
	return inj.inner.Truncate(name, size)
}
