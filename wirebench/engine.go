package main

import (
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sim"
)

// tracer records spans and counters at the layer boundaries the traced
// replay crosses: kv op → engine attempt → engine commit / wal append.
// Each replay goroutine owns one slot (found by its locked OS thread
// id), so recording takes no lock; spans are kept in memory and written
// out when the benchmark ends.
type tracer struct {
	epoch   time.Time
	mu      sync.Mutex
	slots   map[int]*slot // by OS thread id
	all     []*slot
	offSlot []span // spans recorded off the replay goroutines (server hooks)
}

// span is one timed interval. Parent is the index of the enclosing span
// in the same slot (-1 for none); Req is the request id of the kv op
// the span belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
}

// slot is one replay goroutine's recording state.
type slot struct {
	id    int
	spans []span
	cur   int32 // open kv op span, the parent of engine spans
	req   int64

	// Counters, cumulative; the replay differences them per kv op.
	begins, commits, reads, newvars int64
	readNs                          int64
	commitNs                        hist
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), slots: map[int]*slot{}} }

func (tr *tracer) now() int64 { return int64(time.Since(tr.epoch)) }

// newSlot returns a fresh slot with room for spans spans.
func (tr *tracer) newSlot(spans int) *slot {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	s := &slot{id: len(tr.all), cur: -1, spans: make([]span, 0, spans)}
	tr.all = append(tr.all, s)
	return s
}

// bind makes s the slot of the calling goroutine, which must hold its OS
// thread locked until it calls the returned unbind.
func (tr *tracer) bind(s *slot) (unbind func()) {
	tid := syscall.Gettid()
	tr.mu.Lock()
	tr.slots[tid] = s
	tr.mu.Unlock()
	return func() {
		tr.mu.Lock()
		delete(tr.slots, tid)
		tr.mu.Unlock()
	}
}

// slot returns the calling thread's slot, or nil off the replay
// goroutines (store construction, server goroutines).
func (tr *tracer) slot() *slot {
	tid := syscall.Gettid()
	tr.mu.Lock()
	s := tr.slots[tid]
	tr.mu.Unlock()
	return s
}

// open starts a span under the slot's current kv op and returns its index.
func (s *slot) open(name string, start int64) int32 {
	s.spans = append(s.spans, span{Name: name, Start: start, Parent: s.cur, Req: s.req})
	return int32(len(s.spans) - 1)
}

func (tr *tracer) record(sp span) {
	tr.mu.Lock()
	tr.offSlot = append(tr.offSlot, sp)
	tr.mu.Unlock()
}

// tracedTM is a counting and timing core.TM decorator. Every method
// forwards to the wrapped engine; the transactions it begins forward
// the optional core.TxRecycler and core.Releaser capabilities exactly
// when the wrapped engine's transactions implement them, so the store
// above takes the same code paths as on the bare engine.
type tracedTM struct {
	inner core.TM
	tr    *tracer
}

func (t *tracedTM) Name() string          { return t.inner.Name() }
func (t *tracedTM) ObstructionFree() bool { return t.inner.ObstructionFree() }

func (t *tracedTM) NewVar(name string, init uint64) core.Var {
	if s := t.tr.slot(); s != nil {
		s.newvars++
	}
	return t.inner.NewVar(name, init)
}

func (t *tracedTM) Begin(p *sim.Proc) core.Tx {
	s := t.tr.slot()
	base := tracedTx{inner: t.inner.Begin(p), tr: t.tr, s: s, span: -1}
	if s != nil {
		s.begins++
		base.span = s.open("engine.attempt", t.tr.now())
	}
	_, rec := base.inner.(core.TxRecycler)
	_, rel := base.inner.(core.Releaser)
	switch {
	case rec && rel:
		return &tracedTxRecRel{tracedTxRec{base}}
	case rec:
		return &tracedTxRec{base}
	case rel:
		return &tracedTxRel{base}
	}
	return &base
}

// tracedTx wraps one engine transaction (one attempt of core.Run).
type tracedTx struct {
	inner core.Tx
	tr    *tracer
	s     *slot
	span  int32 // the attempt span, -1 when untraced
}

func (t *tracedTx) ID() model.TxID { return t.inner.ID() }

func (t *tracedTx) Status() model.Status { return t.inner.Status() }

func (t *tracedTx) Read(v core.Var) (uint64, error) {
	if t.s == nil {
		return t.inner.Read(v)
	}
	t0 := t.tr.now()
	val, err := t.inner.Read(v)
	t.s.readNs += t.tr.now() - t0
	t.s.reads++
	return val, err
}

func (t *tracedTx) Write(v core.Var, val uint64) error { return t.inner.Write(v, val) }

func (t *tracedTx) Commit() error {
	if t.s == nil {
		return t.inner.Commit()
	}
	t0 := t.tr.now()
	c := t.s.open("engine.commit", t0)
	t.s.spans[c].Parent = t.span
	err := t.inner.Commit()
	t1 := t.tr.now()
	t.s.spans[c].End = t1
	t.s.commitNs.record(t1 - t0)
	if err == nil {
		t.s.commits++
	}
	t.end(t1)
	return err
}

func (t *tracedTx) Abort() {
	t.inner.Abort()
	if t.s != nil {
		t.end(t.tr.now())
	}
}

// end closes the attempt span. An attempt whose body saw ErrAborted
// ends neither in Commit nor Abort; core.Run recycles it, or the next
// attempt's Begin supersedes it, and its end stays 0 in the trace.
func (t *tracedTx) end(at int64) {
	if t.span >= 0 && t.s.spans[t.span].End == 0 {
		t.s.spans[t.span].End = at
	}
}

type tracedTxRec struct{ tracedTx }

func (t *tracedTxRec) Recycle() {
	if t.s != nil {
		t.end(t.tr.now())
	}
	t.inner.(core.TxRecycler).Recycle()
}

type tracedTxRel struct{ tracedTx }

func (t *tracedTxRel) Release(v core.Var) error { return t.inner.(core.Releaser).Release(v) }

type tracedTxRecRel struct{ tracedTxRec }

func (t *tracedTxRecRel) Release(v core.Var) error { return t.inner.(core.Releaser).Release(v) }
