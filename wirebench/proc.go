package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// serverProc is one oftm-server child process.
type serverProc struct {
	cmd     *exec.Cmd
	addr    string
	started time.Time
	serving time.Duration // exec until the "serving on" line
	waited  chan struct{}
	waitErr error

	mu   sync.Mutex
	tail []string // last output lines, for failure reports
}

// Server and load generator share the machine's cores. At equal
// priority a busy server delays the generator's wake-ups, and with them
// its sends and its reply timestamps, by milliseconds: the generator,
// not the server, would set the measured latencies. So the untraced
// run puts the generator under SCHED_FIFO (realtime), which preempts
// the server the moment a generator thread wakes, and the server runs
// under SCHED_OTHER at niceness serverNice; where SCHED_FIFO is not
// permitted the niceness alone favours the generator. Either way the
// server gets every cycle the generator does not use.
const serverNice = "10"

// realtime puts every thread of this process under SCHED_FIFO. Threads
// the Go runtime starts later inherit the policy of the thread that
// starts them; the second pass catches a thread started during the
// first.
func realtime() error {
	const schedFIFO = 1
	prio := int32(1)
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, uintptr(tid), schedFIFO, uintptr(unsafe.Pointer(&prio))); errno != 0 {
				return errno
			}
		}
	}
	return nil
}

// startServer execs bin with args and waits for its "serving on" line.
func startServer(bin string, args []string) (*serverProc, error) {
	// chrt -o 0: the child must not inherit the generator's SCHED_FIFO.
	cmd := exec.Command("chrt", append([]string{"-o", "0", "nice", "-n", serverNice, bin}, args...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = cmd.Stdout
	p := &serverProc{cmd: cmd, waited: make(chan struct{})}
	p.started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		found := false
		for sc.Scan() {
			l := sc.Text()
			if _, rest, ok := strings.Cut(l, "serving on "); ok && !found {
				found = true
				p.serving = time.Since(p.started)
				addrCh <- strings.Fields(rest)[0]
			}
			p.mu.Lock()
			p.tail = append(p.tail, l)
			if len(p.tail) > 20 {
				p.tail = p.tail[1:]
			}
			p.mu.Unlock()
		}
		p.waitErr = cmd.Wait()
		close(p.waited)
	}()
	select {
	case p.addr = <-addrCh:
		return p, nil
	case <-p.waited:
		return nil, fmt.Errorf("server exited before serving: %v: %s", p.waitErr, p.output())
	case <-time.After(120 * time.Second):
		p.kill()
		return nil, fmt.Errorf("server not serving after 120s: %s", p.output())
	}
}

func (p *serverProc) output() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.tail, " | ")
}

// stop shuts the server down cleanly (SIGTERM) and waits for it,
// killing it if it does not exit in time.
func (p *serverProc) stop() {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.waited:
	case <-time.After(20 * time.Second):
		p.kill()
	}
}

// kill SIGKILLs the server and waits until it has exited.
func (p *serverProc) kill() {
	p.cmd.Process.Kill()
	<-p.waited
}

func (p *serverProc) pid() int { return p.cmd.Process.Pid }

// cpuTicks returns the process's user+system CPU time in clock ticks
// (fields 14 and 15 of /proc/<pid>/stat).
func cpuTicks(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	i := bytes.LastIndexByte(b, ')') // the command name may contain spaces
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	s, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return u + s, nil
}

// userHZ is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU times
// (100 on every Linux ABI Go supports).
const userHZ = 100

// vmHWM returns the process's peak resident set size in bytes.
func vmHWM(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseInt(f[0], 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// serverCounters are the STATS, STATS WORKERS and STATS FLUSH totals
// the traced run reports.
type serverCounters struct {
	txns, rounds, escalations, dispatches, pauses int64
}

// fields parses "k=v" tokens of a stats line into m (summing repeats).
func fields(line string, m map[string]int64) {
	for _, tok := range strings.Fields(line) {
		if k, v, ok := strings.Cut(tok, "="); ok {
			if n, err := strconv.ParseInt(v, 10, 64); err == nil {
				m[k] += n
			}
		}
	}
}

func readCounters(c *wireConn) (serverCounters, error) {
	var sc serverCounters
	m := map[string]int64{}
	st, err := c.query("STATS", func(string) int { return 0 })
	if err != nil {
		return sc, err
	}
	fields(st[0], m)
	sc.txns = m["txns"]

	count := func(prefix string) func(string) int {
		return func(first string) int {
			f := strings.Fields(strings.TrimPrefix(first, prefix))
			if len(f) == 0 {
				return 0
			}
			n, _ := strconv.Atoi(f[0])
			return n
		}
	}
	m = map[string]int64{}
	ws, err := c.query("STATS WORKERS", count("WORKERS "))
	if err != nil {
		return sc, err
	}
	for _, l := range ws[1:] {
		fields(l, m)
	}
	sc.rounds, sc.escalations, sc.dispatches = m["rounds"], m["escalations"], m["dispatches"]

	m = map[string]int64{}
	fs, err := c.query("STATS FLUSH", count("FLUSH workers="))
	if err != nil {
		return sc, err
	}
	fields(fs[0], m)
	sc.pauses = m["pauses"]
	return sc, nil
}

func (a serverCounters) sub(b serverCounters) serverCounters {
	return serverCounters{
		txns: a.txns - b.txns, rounds: a.rounds - b.rounds, escalations: a.escalations - b.escalations,
		dispatches: a.dispatches - b.dispatches, pauses: a.pauses - b.pauses,
	}
}
