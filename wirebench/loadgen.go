package main

import (
	"bufio"
	"fmt"
	"math"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// wireConn is one load connection. Between phases it is idle and
// drained, so the same connection also carries preload, probes and
// STATS queries: the generator never opens more than two.
type wireConn struct {
	id int
	nc net.Conn
	ck checker
	st stream // load stream

	// Written by the connection's reader during a phase, read after it.
	hAll, hWrite hist
	win          []winHist // per-window histograms, when the phase asks for them
	failed       int64
	acks         []ackRec // durable-txn acknowledgement times
	answered     atomic.Int64
	late         atomic.Int64
}

// winHist holds one time window of a phase, by intended send time: the
// replies' latencies and the sender's lateness.
type winHist struct{ all, lag hist }

type ackRec struct {
	write int32
	ns    int64
}

type loadgen struct {
	epoch time.Time
	conns [2]*wireConn
	gs    *groupShared
	name  string
	log   func(format string, args ...any) // failure report
}

func (lg *loadgen) now() int64 { return int64(time.Since(lg.epoch)) }

func dialConns(addr string, ss *streams) ([2]*wireConn, error) {
	var cs [2]*wireConn
	for i := range cs {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			for _, c := range cs[:i] {
				c.nc.Close()
			}
			return cs, fmt.Errorf("dial %s: %w", addr, err)
		}
		cs[i] = &wireConn{id: i, nc: nc, st: ss.load[i]}
		cs[i].ck = checker{br: bufio.NewReaderSize(nc, 64<<10), gs: ss.gs}
	}
	return cs, nil
}

func (lg *loadgen) close() {
	for _, c := range lg.conns {
		if c != nil {
			c.nc.Close()
		}
	}
}

// phaseResult is what one open-loop phase measured.
type phaseResult struct {
	planned, sent   int64
	answered        int64     // correct replies
	failed          int64     // checker-rejected, ERR or unanswered replies
	aborted         bool      // the step stopped early: a quarter of it already missed the limit
	all, write, lag hist      // latency from intended send time; sender lateness
	win             []winHist // the same latencies split into equal windows
}

// verdict judges a search step: +1 when every request was answered
// correctly, nothing stopped the step early, and the median p99 of the
// windows in which the sender kept its schedule (lateness p99 within a
// quarter of the limit) is within limitNs; 0 when the sender kept its
// schedule in no window, so the step measured the machine, not the
// server; -1 otherwise. A backlog that grows through the step pushes
// the later windows past the limit; one stall of the shared machine
// spoils one window only.
func (r *phaseResult) verdict(limitNs int64) int {
	if r.aborted || r.failed != 0 || r.answered != r.planned {
		return -1
	}
	ok := onSchedule(r.win, limitNs/4)
	if len(ok) == 0 {
		return 0
	}
	if windowP99(ok) <= ms(limitNs) {
		return 1
	}
	return -1
}

// phaseOpts configures one open-loop phase.
type phaseOpts struct {
	rate      float64       // offered requests per second, both connections together
	dur       time.Duration // schedule length
	limitNs   int64         // latency limit (late counting, early stop)
	stopEarly bool          // stop sending once a quarter of the step is late: a clear overload
	drain     time.Duration // how long after the schedule replies may still arrive
	windows   int           // split latencies into this many equal windows (0 = none)
}

// setTimerSlack asks the kernel for precise wake-ups on the calling
// (locked) thread; the default 50µs slack would dominate the schedule
// error at the rates measured here.
func setTimerSlack() {
	const prSetTimerSlack = 29
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
}

func sleepNs(d int64) {
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(d)
	syscall.Nanosleep(&ts, nil) // EINTR just ends the nap early; the caller re-checks the clock
}

// runPhase offers load open-loop: request i of connection c is due at
// start + (i + c/2) * period with period = 2/rate, whatever the replies
// do. Each request's latency is measured from its due time, so a stall
// is charged to every request it delays (no coordinated omission).
func (lg *loadgen) runPhase(o phaseOpts) phaseResult {
	period := 2e9 / o.rate // ns between two requests of one connection
	perConn := int64(o.rate * o.dur.Seconds() / 2)
	if perConn < 1 {
		perConn = 1
	}
	exps := [2]chan expect{}
	var wg sync.WaitGroup
	start := lg.now() + int64(period)
	span := int64(float64(perConn) * period)
	for i, c := range lg.conns {
		c.hAll.reset()
		c.hWrite.reset()
		c.win = make([]winHist, o.windows)
		c.failed = 0
		c.answered.Store(0)
		c.late.Store(0)
		// Sized to hold a full second of backlog at 64k req/s per
		// connection: the sender blocks (and its lateness shows) only
		// behind a stall longer than that.
		exps[i] = make(chan expect, 1<<16)
		wg.Add(1)
		go func(c *wireConn, in <-chan expect) {
			defer wg.Done()
			lg.read(c, in, o.limitNs, start, span)
		}(c, exps[i])
	}

	res := phaseResult{planned: 2 * perConn, win: make([]winHist, o.windows)}
	due := func(c int, i int64) int64 { return start + int64((float64(i)+float64(c)/2)*period) }
	// dueBy returns how many of connection c's requests are due at t.
	dueBy := func(c int, t int64) int64 {
		n := int64((float64(t-start)/period)-float64(c)/2) + 1
		if t < start || n < 0 {
			return 0
		}
		if n > perConn {
			n = perConn
		}
		return n
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		setTimerSlack()
		var next [2]int64
		end := [2]int64{perConn, perConn}
		var buf []byte
		var batch []expect
		for {
			now := lg.now()
			for ci, c := range lg.conns {
				if next[ci] >= end[ci] || due(ci, next[ci]) > now {
					continue
				}
				buf, batch = buf[:0], batch[:0]
				for next[ci] < end[ci] && due(ci, next[ci]) <= now {
					var e expect
					buf, e = c.st.next(buf)
					e.intended = due(ci, next[ci])
					batch = append(batch, e)
					next[ci]++
				}
				t := lg.now()
				for i := range batch {
					res.lag.record(t - batch[i].intended)
					if n := int64(len(res.win)); n > 0 {
						res.win[min(n-1, max(0, (batch[i].intended-start)*n/span))].lag.record(t - batch[i].intended)
					}
					if w := batch[i].write; w >= 0 {
						lg.gs.logs[ci].writes[w].sentNs = t
					}
					exps[ci] <- batch[i]
				}
				if _, err := c.nc.Write(buf); err != nil {
					end[ci] = next[ci] // the reader reports the broken connection
				}
			}
			if next[0] >= end[0] && next[1] >= end[1] {
				break
			}
			if o.stopEarly {
				late := lg.conns[0].late.Load() + lg.conns[1].late.Load()
				for ci, c := range lg.conns {
					if n := dueBy(ci, now-o.limitNs) - c.answered.Load(); n > 0 {
						late += n
					}
				}
				if late*4 > res.planned {
					res.aborted = true
					end = next
					break
				}
			}
			wake := due(0, next[0])
			if next[0] >= end[0] || next[1] < end[1] && due(1, next[1]) < wake {
				wake = due(1, next[1])
			}
			sleepNs(wake - lg.now())
		}
		res.sent = next[0] + next[1]
		for _, ch := range exps {
			close(ch)
		}
	}()
	<-done

	readersDone := make(chan struct{})
	go func() { wg.Wait(); close(readersDone) }()
	select {
	case <-readersDone:
	case <-time.After(o.drain):
		// Unanswered at the deadline: unblock the readers, which count
		// what is left as failed.
		for _, c := range lg.conns {
			c.nc.SetReadDeadline(time.Now())
		}
		<-readersDone
	}
	for _, c := range lg.conns {
		res.all.merge(&c.hAll)
		res.write.merge(&c.hWrite)
		for w := range c.win {
			res.win[w].all.merge(&c.win[w].all)
		}
		res.failed += c.failed
		res.answered += c.answered.Load()
	}
	// A failed or unanswered request misses any latency limit.
	res.all.recordN(math.MaxInt64/2, res.planned-res.answered)
	return res
}

// read is one connection's reply reader for a phase: it checks each
// reply, records its latency, and after a connection error counts
// every remaining request as failed.
func (lg *loadgen) read(c *wireConn, in <-chan expect, limitNs, start, span int64) {
	var broken error
	for e := range in {
		if broken != nil {
			c.failed++
			continue
		}
		bad, err := c.ck.read(&e)
		if err != nil {
			broken = err
			c.failed++
			lg.log("%s conn %d: reply to %s: %v", lg.name, c.id, kindName[e.kind], err)
			continue
		}
		t := lg.now()
		lat := t - e.intended
		if bad != "" {
			c.failed++
			lg.log("%s conn %d: %s %s: %s", lg.name, c.id, kindName[e.kind], keyName(lg.prefix(), e.key), bad)
			continue
		}
		c.hAll.record(lat)
		if e.kind.isWrite() {
			c.hWrite.record(lat)
		}
		if n := int64(len(c.win)); n > 0 {
			c.win[min(n-1, max(0, (e.intended-start)*n/span))].all.record(lat)
		}
		if e.write >= 0 {
			c.acks = append(c.acks, ackRec{write: e.write, ns: t})
		}
		if lat > limitNs {
			c.late.Add(1)
		}
		c.answered.Add(1)
	}
}

func (lg *loadgen) prefix() byte { return keyPrefix(lg.name) }

var kindName = map[kind]string{
	kGet: "GET", kSet: "SET", kSetNew: "SET(new)", kDel: "DEL", kCAS: "CAS",
	kTxnW: "MULTI-SET", kTxnR: "MULTI-GET", kGroupGet: "GET(group)",
}

// burst sends n requests of st on c as one pipelined write and checks
// every reply (closed loop: the preload and probes, not measured load).
func (lg *loadgen) burst(c *wireConn, st stream, n int) error {
	var buf []byte
	exps := make([]expect, 0, n)
	for i := 0; i < n; i++ {
		var e expect
		buf, e = st.next(buf)
		exps = append(exps, e)
	}
	c.nc.SetDeadline(time.Now().Add(30 * time.Second))
	defer c.nc.SetDeadline(time.Time{})
	if _, err := c.nc.Write(buf); err != nil {
		return err
	}
	for i := range exps {
		bad, err := c.ck.read(&exps[i])
		if err != nil {
			return err
		}
		if bad != "" {
			return fmt.Errorf("%s: %s", kindName[exps[i].kind], bad)
		}
	}
	return nil
}

// query sends one line and returns the reply lines: the first line, and
// as many more as its header announces through body(first).
func (c *wireConn) query(req string, body func(first string) int) ([]string, error) {
	c.nc.SetDeadline(time.Now().Add(10 * time.Second))
	defer c.nc.SetDeadline(time.Time{})
	if _, err := c.nc.Write([]byte(req + "\n")); err != nil {
		return nil, err
	}
	l, err := c.ck.line()
	if err != nil {
		return nil, err
	}
	out := []string{string(l)}
	for n := body(out[0]); n > 0; n-- {
		l, err := c.ck.line()
		if err != nil {
			return nil, err
		}
		out = append(out, string(l))
	}
	return out, nil
}
