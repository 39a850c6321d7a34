package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/kv"
	"repro/internal/server"
	"repro/internal/wal"
)

// traced is the traced run. It measures each layer through its public
// functions, from this package only, and changes no program code:
//
//   - the wire run against the real server binary gives the load
//     generator's lateness, the setup split and the server's counter
//     deltas (STATS, STATS WORKERS, STATS FLUSH) over the nominal phase;
//   - an in-process server.New with the same configuration, its commit
//     hook wrapped to time each WAL append and its log written through a
//     byte-counting filesystem, serves the same nominal phase (the
//     traced p50 against the wire run's untraced p50 is the tracing
//     overhead) and then cuts one snapshot;
//   - the workload's request stream, replayed in-process on a kv.Store
//     built over the counting engine decorator (engine.go), gives the kv,
//     engine and index figures. Its spans nest kv op → engine attempt →
//     engine commit and kv op → wal append, and are written to
//     <work>/spans-<workload>-seed<seed>.jsonl.
func (r *run) traced() (*report, error) {
	rep := &report{}
	untracedP50, err := r.tracedWire(rep)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	tracedP50, err := r.tracedServer(rep, tr)
	if err != nil {
		return nil, err
	}
	rep.set("trace.p50_untraced_ms", untracedP50, "ms")
	rep.set("trace.p50_traced_ms", tracedP50, "ms")
	rep.set("trace.p50_overhead", tracedP50/untracedP50, "ratio")
	if err := r.replay(rep, tr); err != nil {
		return nil, err
	}
	return rep, r.writeSpans(tr)
}

// tracedWire is the untraced wire part of the traced run.
func (r *run) tracedWire(rep *report) (p50 float64, err error) {
	master, err := r.walMaster()
	if err != nil {
		return 0, err
	}
	d, err := r.setup(master, 0)
	if err != nil {
		return 0, err
	}
	defer func() {
		r.lg.close()
		r.srv.stop()
	}()
	rep.set("setup.recover_s", r.srv.serving.Seconds(), "s")
	rep.set("setup.preload_s", (d - r.srv.serving).Seconds(), "s")
	c0, err := readCounters(r.lg.conns[0])
	if err != nil {
		return 0, err
	}
	nom, _, err := r.nominal(0)
	if err != nil {
		return 0, err
	}
	c1, err := readCounters(r.lg.conns[0])
	if err != nil {
		return 0, err
	}
	rep.attempted += nom.planned
	rep.failed += nom.planned - nom.answered
	d1 := c1.sub(c0)
	kreq := float64(max(nom.answered, 1)) / 1000
	rep.set("loadgen.send_lag_ms.p99", ms(nom.lag.quantile(0.99)), "ms")
	rep.set("server.txns_per_kreq", float64(d1.txns)/kreq, "count")
	rep.set("server.rounds_per_kreq", float64(d1.rounds)/kreq, "count")
	rep.set("server.escalations_per_kreq", float64(d1.escalations)/kreq, "count")
	rep.set("server.dispatches_per_kreq", float64(d1.dispatches)/kreq, "count")
	rep.set("server.flush_pauses", float64(d1.pauses), "count")
	return ms(nom.all.quantile(0.5)), nil
}

// countFS counts the bytes the WAL writes.
type countFS struct {
	faultfs.FS
	mu      sync.Mutex
	written int64
}

func (c *countFS) add(n int) {
	c.mu.Lock()
	c.written += int64(n)
	c.mu.Unlock()
}

func (c *countFS) bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.written
}

func (c *countFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, fs: c}, nil
}

func (c *countFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	c.add(len(data))
	return c.FS.WriteFile(name, data, perm)
}

type countFile struct {
	faultfs.File
	fs *countFS
}

func (f *countFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.add(n)
	return n, err
}

// serverConfig maps the workload's server flags onto a server.Config.
func (r *run) serverConfig(walDir string) (server.Config, error) {
	cfg := server.Config{Addr: "127.0.0.1:0"}
	args := r.serverArgs(walDir)[2:]
	for i := 0; i+1 < len(args); i += 2 {
		v := args[i+1]
		switch args[i] {
		case "-wal-dir":
			cfg.WALDir = v
		case "-fsync":
			cfg.Fsync = v
		case "-snapshot-every":
			d, err := time.ParseDuration(v)
			if err != nil {
				return cfg, err
			}
			cfg.SnapshotEvery = d
		default:
			return cfg, fmt.Errorf("traced server: unsupported flag %s", args[i])
		}
	}
	return cfg, nil
}

// walTimer times WAL appends made through a commit hook.
type walTimer struct {
	mu        sync.Mutex
	h         hist
	userBytes int64
}

func (w *walTimer) hook(tr *tracer, l *wal.Log) kv.CommitHook {
	return func(effects []kv.Effect) error {
		s := tr.slot()
		t0 := tr.now()
		err := l.Append(effects)
		t1 := tr.now()
		var ub int64
		for _, e := range effects {
			ub += int64(len(e.Key)) + 8
		}
		w.mu.Lock()
		w.h.record(t1 - t0)
		w.userBytes += ub
		w.mu.Unlock()
		if s != nil {
			i := s.open("wal.append", t0)
			s.spans[i].End = t1
		} else {
			tr.record(span{Name: "wal.append", Start: t0, End: t1, Parent: -1})
		}
		return err
	}
}

// tracedServer serves the nominal phase from an in-process server whose
// WAL appends are timed; it returns that phase's p50 in ms.
func (r *run) tracedServer(rep *report, tr *tracer) (float64, error) {
	dir := filepath.Join(r.dir, "traced-wal")
	if r.name == "large-churn" {
		if err := copyDir(filepath.Join(r.dir, "master"), dir); err != nil {
			return 0, err
		}
	}
	cfg, err := r.serverConfig(dir)
	if err != nil {
		return 0, err
	}
	fs := &countFS{FS: faultfs.OS}
	cfg.WALFS = fs
	srv, err := server.New(cfg)
	if err != nil {
		return 0, err
	}
	l := srv.WAL()
	wt := &walTimer{}
	srv.Store().SetCommitHook(wt.hook(tr, l))
	if err := srv.Listen(); err != nil {
		srv.Close()
		return 0, err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()
	defer func() {
		srv.Close()
		<-served
	}()

	ss, err := newStreams(r.name, r.seed)
	if err != nil {
		return 0, err
	}
	lg := &loadgen{epoch: time.Now(), gs: ss.gs, name: r.name, log: r.logf}
	if lg.conns, err = dialConns(srv.Addr().String(), ss); err != nil {
		return 0, err
	}
	defer lg.close()
	for c := 0; c < 2; c++ {
		if ss.npre[c] > 0 {
			if err := lg.burst(lg.conns[c], ss.preload[c], ss.npre[c]); err != nil {
				return 0, fmt.Errorf("traced preload: %w", err)
			}
		}
	}
	saved := r.lg
	r.lg = lg
	a0, b0 := l.Stats().Appended, fs.bytes()
	wt.mu.Lock()
	wt.h.reset()
	u0 := wt.userBytes
	wt.mu.Unlock()
	nom, _, err := r.nominal(0)
	r.lg = saved
	if err != nil {
		return 0, err
	}
	a1, b1 := l.Stats().Appended, fs.bytes()
	rep.attempted += nom.planned
	rep.failed += nom.planned - nom.answered

	wt.mu.Lock()
	rep.set("wal.append_us.p50", float64(wt.h.quantile(0.5))/1e3, "us")
	rep.set("wal.append_us.p99", float64(wt.h.quantile(0.99))/1e3, "us")
	ub := wt.userBytes - u0
	wt.mu.Unlock()
	rep.set("wal.records_per_kreq", float64(a1-a0)/(float64(max(nom.answered, 1))/1000), "count")
	rep.set("wal.disk_bytes_per_user_byte", float64(b1-b0)/float64(max(ub, 1)), "ratio")

	t0 := time.Now()
	if err := srv.SnapshotNow(); err != nil {
		return 0, fmt.Errorf("snapshot: %w", err)
	}
	rep.set("wal.snapshot_cut_ms", float64(time.Since(t0))/1e6, "ms")
	return ms(nom.all.quantile(0.5)), nil
}

// opStats accumulates one kv op kind over the replay.
type opStats struct {
	h             hist // latency, ns
	n             int64
	reads, newvar int64 // t-variable reads and allocations inside the op
}

// replayer is one replay goroutine: a kv.Session fed one connection's
// request stream, each op timed as a kv span.
type replayer struct {
	s     *slot
	se    *kv.Session
	tr    *tracer
	ops   map[string]*opStats
	bad   int64
	first string
	gs    *groupShared
}

func (rp *replayer) op(name string, fn func() (string, error)) error {
	s := rp.s
	s.req++
	r0, nv0 := s.reads, s.newvars
	t0 := rp.tr.now()
	s.cur = s.open("kv."+name, t0)
	kind, err := fn()
	t1 := rp.tr.now()
	s.spans[s.cur].End = t1
	if kind != "" {
		name = kind
		s.spans[s.cur].Name = "kv." + kind
	}
	s.cur = -1
	st := rp.ops[name]
	if st == nil {
		st = &opStats{}
		rp.ops[name] = st
	}
	st.h.record(t1 - t0)
	st.n++
	st.reads += s.reads - r0
	st.newvar += s.newvars - nv0
	return err
}

func (rp *replayer) fail(format string, args ...any) {
	rp.bad++
	if rp.first == "" {
		rp.first = fmt.Sprintf(format, args...)
	}
}

// do parses one generated request and executes it on the session,
// checking the result against e the way the wire checker does.
func (rp *replayer) do(req []byte, e expect) error {
	lines := bytes.Split(bytes.TrimSuffix(req, []byte("\n")), []byte("\n"))
	if string(lines[0]) == "MULTI" {
		var keys []string
		var ops []kv.Op
		for _, l := range lines[1 : len(lines)-1] {
			f := bytes.Fields(l)
			keys = append(keys, string(f[1]))
			if string(f[0]) == "SET" {
				v, _ := strconv.ParseUint(string(f[2]), 10, 64)
				ops = append(ops, kv.Op{Kind: kv.OpPut, Key: string(f[1]), Val: v})
			}
		}
		if len(ops) == 0 {
			return rp.op("getmulti", func() (string, error) {
				res, err := rp.se.GetMulti(nil, keys)
				if err == nil {
					for _, x := range res {
						if !x.Found || x.Val != res[0].Val || !rp.gs.valid(e.key, x.Val) {
							rp.fail("replay: torn or invalid snapshot of group %d", e.key)
							break
						}
					}
				}
				return "", err
			})
		}
		return rp.op("txn", func() (string, error) {
			_, err := rp.se.Txn(nil, ops)
			return "", err
		})
	}
	f := bytes.Fields(lines[0])
	key := string(f[1])
	num := func(i int) uint64 { v, _ := strconv.ParseUint(string(f[i]), 10, 64); return v }
	switch string(f[0]) {
	case "GET":
		return rp.op("get", func() (string, error) {
			v, found, err := rp.se.Get(nil, key)
			if err == nil && (!found || e.kind == kGet && v != e.val || e.kind == kGroupGet && !rp.gs.valid(e.key, v)) {
				rp.fail("replay: GET %s = %d, %v", key, v, found)
			}
			return "", err
		})
	case "SET":
		return rp.op("set", func() (string, error) {
			isNew, err := rp.se.Put(nil, key, num(2))
			if err == nil && isNew != (e.kind == kSetNew) {
				rp.fail("replay: SET %s new=%v", key, isNew)
			}
			if isNew {
				return "insert", err
			}
			return "update", err
		})
	case "DEL":
		return rp.op("del", func() (string, error) {
			found, err := rp.se.Delete(nil, key)
			if err == nil && !found {
				rp.fail("replay: DEL %s found nothing", key)
			}
			return "", err
		})
	case "CAS":
		return rp.op("cas", func() (string, error) {
			swapped, _, err := rp.se.CAS(nil, key, num(2), num(3))
			if err == nil && !swapped {
				rp.fail("replay: CAS %s did not swap", key)
			}
			return "", err
		})
	}
	return fmt.Errorf("replay: cannot parse %q", lines[0])
}

// probeMin is the fewest samples an op kind's figure is taken from; a
// kind the stream issues less often is measured on probe keys instead.
const probeMin = 200

// probe runs every op kind probeMin times on keys of its own, after the
// stream, so each kv figure is defined on every workload.
func (rp *replayer) probe() error {
	key := func(i int) string { return fmt.Sprintf("probe%d-%06d", rp.s.id, i) }
	run := func(name string, fn func(i int) error) error {
		for i := 0; i < probeMin; i++ {
			if err := rp.op(name, func() (string, error) { return "", fn(i) }); err != nil {
				return err
			}
		}
		return nil
	}
	steps := []struct {
		name string
		fn   func(i int) error
	}{
		{"probe.insert", func(i int) error { _, err := rp.se.Put(nil, key(i), 1); return err }},
		{"probe.update", func(i int) error { _, err := rp.se.Put(nil, key(i), 2); return err }},
		{"probe.cas", func(i int) error { _, _, err := rp.se.CAS(nil, key(i), 2, 3); return err }},
		{"probe.get", func(i int) error { _, _, err := rp.se.Get(nil, key(i)); return err }},
		{"probe.getmulti", func(i int) error {
			_, err := rp.se.GetMulti(nil, []string{key(i), key((i + 1) % probeMin), key((i + 2) % probeMin), key((i + 3) % probeMin)})
			return err
		}},
		{"probe.txn", func(i int) error {
			_, err := rp.se.Txn(nil, []kv.Op{{Kind: kv.OpPut, Key: key(i), Val: 4}, {Kind: kv.OpPut, Key: key((i + 1) % probeMin), Val: 4}})
			return err
		}},
		{"probe.del", func(i int) error { _, err := rp.se.Delete(nil, key(i)); return err }},
	}
	for _, st := range steps {
		if err := run(st.name, st.fn); err != nil {
			return err
		}
	}
	return nil
}

func heapAfterGC() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// onLockedThread runs fn on a fresh goroutine bound to its own OS
// thread and waits for it.
func onLockedThread(fn func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		fn()
	}()
	<-done
}

// replayRequests is how many requests each connection's stream replays:
// the nominal phase's share, capped so the replay stays short.
func (r *run) replayRequests() int {
	n := int(r.wc.NominalRPS * r.seconds * r.wc.NominalShare / 2)
	return min(max(n, 1000), 20000)
}

// replay loads the workload's initial state into a kv.Store over the
// counting engine decorator, the way the wire run does: large-churn by
// recovering a copy of its WAL directory, the others by replaying their
// preload streams. It then replays both connections' request streams
// concurrently.
func (r *run) replay(rep *report, tr *tracer) error {
	dir := filepath.Join(r.dir, "replay-wal")
	if r.name == "large-churn" {
		if err := copyDir(filepath.Join(r.dir, "master"), dir); err != nil {
			return err
		}
	}
	cfg, err := r.serverConfig(dir)
	if err != nil {
		return err
	}
	if cfg.Fsync == "" {
		cfg.Fsync = "interval" // the server's default
	}
	policy, err := wal.ParsePolicy(cfg.Fsync)
	if err != nil {
		return err
	}
	t0 := time.Now()
	l, rec, err := wal.Open(wal.Options{Dir: dir, Policy: policy})
	if err != nil {
		return err
	}
	defer l.Close()
	rep.set("wal.open_s", time.Since(t0).Seconds(), "s")

	inner, err := server.NewEngine("nztm")
	if err != nil {
		return err
	}
	// Span storage is allocated up front so the heap figures count the
	// store, not the trace.
	ss, err := newStreams(r.name, r.seed)
	if err != nil {
		return err
	}
	n := r.replayRequests()
	loadSlot := tr.newSlot(4*(rec.Keys+ss.npre[0]+ss.npre[1]) + 64)
	var slots [2]*slot
	for c := range slots {
		slots[c] = tr.newSlot(8*n + 64)
	}
	probeSlots := [2]*slot{tr.newSlot(64 * probeMin), tr.newSlot(64 * probeMin)}
	heap0 := heapAfterGC()
	st := kv.New(&tracedTM{inner: inner, tr: tr}, 8, 16)
	load := &replayer{s: loadSlot, tr: tr, ops: map[string]*opStats{}}
	var loadErr error
	var loadS float64
	onLockedThread(func() {
		defer tr.bind(loadSlot)()
		load.se = st.NewSession()
		t := time.Now()
		loadErr = rec.Each(func(k string, v uint64) error {
			return load.op("load", func() (string, error) { _, err := load.se.Put(nil, k, v); return "", err })
		})
		var buf []byte
		for c := 0; c < 2 && loadErr == nil; c++ {
			for i := 0; i < ss.npre[c] && loadErr == nil; i++ {
				var e expect
				buf, e = ss.preload[c].next(buf[:0])
				loadErr = load.do(buf, e)
			}
		}
		loadS = time.Since(t).Seconds()
	})
	if loadErr != nil {
		return loadErr
	}
	if load.bad > 0 {
		return fmt.Errorf("%s", load.first)
	}
	rec = wal.Recovered{}
	keys, err := st.Len(nil)
	if err != nil {
		return err
	}
	heap1 := heapAfterGC()
	ld := &opStats{} // every load op: recovered puts, or preload SETs and MULTIs
	for _, o := range load.ops {
		ld.n += o.n
		ld.reads += o.reads
		ld.newvar += o.newvar
	}
	rep.set("kv.load_s", loadS, "s")
	rep.set("kv.heap_bytes_per_key", float64(heap1-heap0)/float64(max(keys, 1)), "B")
	rep.set("ds.reads_per_insert", float64(ld.reads)/float64(max(ld.n, 1)), "count")
	rep.set("ds.newvars_per_insert", float64(ld.newvar)/float64(max(ld.n, 1)), "count")

	// The stream, with the workload's WAL attached as the server does.
	wt := &walTimer{}
	st.SetCommitHook(wt.hook(tr, l))
	es0, _ := core.StatsOf(inner)
	kv0 := st.Stats()
	reps := make([]*replayer, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		reps[c] = &replayer{s: slots[c], tr: tr, ops: map[string]*opStats{}, gs: ss.gs}
		wg.Add(1)
		go func(rp *replayer, c int) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			defer tr.bind(rp.s)()
			rp.se = st.NewSession()
			var buf []byte
			for i := 0; i < n && errs[c] == nil; i++ {
				var e expect
				buf, e = ss.load[c].next(buf[:0])
				errs[c] = rp.do(buf, e)
			}
		}(reps[c], c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	es1, _ := core.StatsOf(inner)
	kv1 := st.Stats()

	// Engine figures over the stream: the stream slots count nothing else.
	var begins, commits, reads, readNs, ops int64
	var commitH hist
	for _, rp := range reps {
		begins += rp.s.begins
		commits += rp.s.commits
		reads += rp.s.reads
		readNs += rp.s.readNs
		commitH.merge(&rp.s.commitNs)
		for _, o := range rp.ops {
			ops += o.n
		}
		rep.failed += rp.bad
		if rp.first != "" {
			r.logf("%s", rp.first)
		}
	}
	rep.attempted += ops
	dTxns := kv1.Txns - kv0.Txns
	rep.set("kv.aborts_per_ktxn", float64(kv1.Aborts()-kv0.Aborts())/float64(max(dTxns, 1))*1000, "count")
	rep.set("kv.cross_shard_frac", float64(kv1.CrossShard-kv0.CrossShard)/float64(max(dTxns, 1)), "ratio")
	rep.set("engine.attempts_per_op", float64(begins)/float64(max(ops, 1)), "count")
	rep.set("engine.abort_frac", 1-float64(commits)/float64(max(begins, 1)), "ratio")
	rep.set("engine.commit_us.p50", float64(commitH.quantile(0.5))/1e3, "us")
	rep.set("engine.commit_us.p99", float64(commitH.quantile(0.99))/1e3, "us")
	rep.set("engine.read_ns.mean", float64(readNs)/float64(max(reads, 1)), "ns")
	rep.set("engine.forced_aborts_per_ktxn", float64(es1.ForcedAborts-es0.ForcedAborts)/float64(max(commits, 1))*1000, "count")
	rep.set("engine.snapshot_ext_per_ktxn", float64(es1.SnapshotExtensions-es0.SnapshotExtensions)/float64(max(commits, 1))*1000, "count")

	// Probes fill the kinds the stream issues rarely or never.
	for c, rp := range reps {
		var perr error
		onLockedThread(func() {
			rp.s = probeSlots[c]
			defer tr.bind(rp.s)()
			perr = rp.probe()
		})
		if perr != nil {
			return perr
		}
	}
	heap2 := heapAfterGC()
	merge := func(kind string) *opStats {
		m := &opStats{}
		for _, rp := range reps {
			if o := rp.ops[kind]; o != nil {
				m.h.merge(&o.h)
				m.n += o.n
				m.reads += o.reads
			}
		}
		return m
	}
	churned := merge("insert").n + merge("del").n + merge("probe.insert").n + merge("probe.del").n
	rep.set("kv.heap_growth_per_churned_key", float64(heap2-heap1)/float64(max(churned, 1)), "B")
	pick := func(kind string) *opStats {
		if m := merge(kind); m.n >= probeMin {
			return m
		}
		return merge("probe." + kind)
	}
	us := func(o *opStats, q float64) float64 { return float64(o.h.quantile(q)) / 1e3 }
	get := pick("get")
	rep.set("kv.get_us.p50", us(get, 0.5), "us")
	rep.set("kv.get_us.p99", us(get, 0.99), "us")
	rep.set("ds.reads_per_get", float64(get.reads)/float64(max(get.n, 1)), "count")
	rep.set("kv.insert_us.p50", us(pick("insert"), 0.5), "us")
	rep.set("kv.update_us.p50", us(pick("update"), 0.5), "us")
	rep.set("kv.del_us.p50", us(pick("del"), 0.5), "us")
	rep.set("kv.cas_us.p50", us(pick("cas"), 0.5), "us")
	txn := pick("txn")
	rep.set("kv.txn_us.p50", us(txn, 0.5), "us")
	rep.set("kv.txn_us.p99", us(txn, 0.99), "us")
	rep.set("kv.getmulti_us.p50", us(pick("getmulti"), 0.5), "us")
	return nil
}

// writeSpans writes every span as one JSON line and prints each span
// name's count, total and self time (its duration minus the part its
// child spans cover).
func (r *run) writeSpans(tr *tracer) error {
	path := filepath.Join(r.work, fmt.Sprintf("spans-%s-seed%d.jsonl", r.name, r.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type agg struct {
		n           int64
		total, self int64
	}
	sum := map[string]*agg{}
	emit := func(slotID, id int, sp span, child int64) error {
		line := struct {
			Slot int `json:"slot"`
			ID   int `json:"id"`
			span
		}{slotID, id, sp}
		b, err := json.Marshal(line)
		if err != nil {
			return err
		}
		w.Write(b)
		w.WriteByte('\n')
		if sp.End == 0 {
			return nil
		}
		a := sum[sp.Name]
		if a == nil {
			a = &agg{}
			sum[sp.Name] = a
		}
		a.n++
		a.total += sp.End - sp.Start
		a.self += sp.End - sp.Start - child
		return nil
	}
	for _, s := range tr.all {
		child := make([]int64, len(s.spans))
		for _, sp := range s.spans {
			if sp.Parent >= 0 && sp.End != 0 {
				child[sp.Parent] += sp.End - sp.Start
			}
		}
		for i, sp := range s.spans {
			if err := emit(s.id, i, sp, child[i]); err != nil {
				f.Close()
				return err
			}
		}
	}
	for i, sp := range tr.offSlot {
		if err := emit(-1, i, sp, 0); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	names := make([]string, 0, len(sum))
	for n := range sum {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("# spans written to %s\n", path)
	for _, n := range names {
		a := sum[n]
		fmt.Printf("# span %-22s n=%-8d total=%10.3fms self=%10.3fms\n", n, a.n, float64(a.total)/1e6, float64(a.self)/1e6)
	}
	return nil
}
