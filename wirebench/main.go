// Command wirebench is the repository's end-to-end benchmark. It runs
// the real oftm-server binary as a child process and drives it over
// loopback from this one process: two connections, GOMAXPROCS 2,
// pipelined requests sent open-loop on a fixed schedule, every request
// timed from its intended send time and every reply checked.
//
//	wirebench -server <oftm-server binary> -workload hot-mixed -seed 1 -seconds 20 -trace 0
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it
// prints the per-layer metrics of a separate traced run (trace.go).
// Each workload's report ends with one JSON object on its own line;
// -workload all runs every workload in turn. The exit status is 1 when
// any reply failed its check. The workloads, their rates and limits are
// frozen in workloads.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workloadCfg is the part of a workload's frozen definition
// (workloads.json) the run reads; the rest of each record documents the
// workload.
type workloadCfg struct {
	ServerFlags    []string `json:"server_flags"`
	NominalRPS     float64  `json:"nominal_rps"`
	LimitMs        float64  `json:"latency_limit_ms"`
	SearchLoRPS    float64  `json:"search_lo_rps"`
	SearchHiRPS    float64  `json:"search_hi_rps"`
	SearchStartRPS float64  `json:"search_start_rps"`
	SetupRepeats   int      `json:"setup_repeats"`
	// NominalShare is the part of the measured seconds spent at the
	// nominal rate; the rate search gets the rest.
	NominalShare float64 `json:"nominal_share"`
}

type benchCfg struct {
	SearchSteps  int                    `json:"search_steps"`
	StairStart   float64                `json:"stair_start_factor"`
	StairMin     float64                `json:"stair_min_factor"`
	StairAverage int                    `json:"stair_average_steps"`
	WarmupS      float64                `json:"warmup_s"`
	Workloads    map[string]workloadCfg `json:"workloads"`
}

func loadCfg(path string) (*benchCfg, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c benchCfg
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics in print order.
type report struct {
	names     []string
	m         map[string]metric
	noted     map[string]bool // printed, but left out of the result object
	attempted int64
	failed    int64
}

func (r *report) set(name string, v float64, unit string) {
	if r.m == nil {
		r.m = map[string]metric{}
	}
	if _, ok := r.m[name]; !ok {
		r.names = append(r.names, name)
	}
	r.m[name] = metric{Value: v, Unit: unit}
}

// note records a figure that is printed with the metrics but left out of
// the result object: its run-to-run spread is too wide to bound.
func (r *report) note(name string, v float64, unit string) {
	r.set(name, v, unit)
	if r.noted == nil {
		r.noted = map[string]bool{}
	}
	r.noted[name] = true
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload: hot-mixed | large-churn | durable-txn | all")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 20, "measured load seconds per run")
		trace    = flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
		bin      = flag.String("server", "", "oftm-server binary")
		cfgPath  = flag.String("config", "wirebench/workloads.json", "frozen workload definitions")
		work     = flag.String("work", ".bench_build/wirebench", "scratch directory for WAL directories and spans")
	)
	flag.Parse()
	runtime.GOMAXPROCS(2)
	if *trace == 0 {
		// The traced run serves and replays in this process; under
		// SCHED_FIFO it would starve everything else on the machine.
		if err := realtime(); err != nil {
			fmt.Printf("# SCHED_FIFO not permitted (%v): the generator runs at normal priority, the server niced\n", err)
		}
	}
	cfg, err := loadCfg(*cfgPath)
	if err != nil {
		fatal(err)
	}
	if *bin == "" {
		fatal(fmt.Errorf("-server is required"))
	}
	names := []string{*workload}
	if *workload == "all" {
		names = names[:0]
		for n := range cfg.Workloads {
			names = append(names, n)
		}
		sort.Strings(names)
	}
	failed := false
	for _, name := range names {
		wc, ok := cfg.Workloads[name]
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", name))
		}
		dir := filepath.Join(*work, fmt.Sprintf("%s-%d", name, os.Getpid()))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fatal(err)
		}
		r := &run{cfg: cfg, wc: wc, name: name, seed: *seed, seconds: float64(*seconds), bin: *bin, dir: dir, work: *work, errw: os.Stderr}
		var rep *report
		if *trace == 1 {
			rep, err = r.traced()
		} else {
			rep, err = r.endToEnd()
		}
		os.RemoveAll(dir)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		emit(rep)
		if rep.failed > 0 {
			fmt.Fprintf(os.Stderr, "wirebench: %d of %d requests failed; repro: -workload %s -seed %d\n",
				rep.failed, rep.attempted, name, *seed)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "wirebench: %v\n", err)
	os.Exit(2)
}

// emit prints each metric on its own line, then the result object.
// fail_frac is printed with the metrics; in the object it is failed
// over attempted, since a metric that reads 0 on a correct run cannot
// be compared as a ratio to its baseline. Noted figures are printed
// only.
func emit(rep *report) {
	for _, n := range rep.names {
		fmt.Printf("%-36s %14.6g %s\n", n, rep.m[n].Value, rep.m[n].Unit)
	}
	fmt.Printf("%-36s %14.6g %s\n", "fail_frac", float64(rep.failed)/float64(max(rep.attempted, 1)), "ratio")
	m := map[string]metric{}
	for n, v := range rep.m {
		if !rep.noted[n] {
			m[n] = v
		}
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, m}
	b, _ := json.Marshal(out)
	fmt.Println(string(b))
}

// run is one invocation's state.
type run struct {
	cfg     *benchCfg
	wc      workloadCfg
	name    string
	seed    int64
	seconds float64
	bin     string
	dir     string // per-run scratch, removed at exit
	work    string
	errw    io.Writer // failure reports
	lg      *loadgen
	srv     *serverProc
	ss      *streams
}

// logf reports a failure with the arguments that reproduce it.
func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(r.errw, "wirebench: "+format+" (repro: -workload %s -seed %d)\n", append(args, r.name, r.seed)...)
}

func (r *run) limitNs() int64 { return int64(r.wc.LimitMs * 1e6) }

// serverArgs returns the workload's server flags for WAL directory wal.
func (r *run) serverArgs(wal string) []string {
	args := []string{"-addr", "127.0.0.1:0"}
	for _, f := range r.wc.ServerFlags {
		args = append(args, strings.ReplaceAll(f, "{wal}", wal))
	}
	return args
}

// walMaster returns the directory each setup starts from: large-churn's
// generated 50,000-key chain, or nothing (an empty directory).
func (r *run) walMaster() (string, error) {
	if r.name != "large-churn" {
		return "", nil
	}
	master := filepath.Join(r.dir, "master")
	return master, writeChurnDir(master, r.seed)
}

// setup starts a server on a fresh copy of master and brings it to the
// workload's initial state: recovery (in the server) or preload over
// the wire, then a probe GET that must answer correctly. It returns the
// time from exec to the probe's correct answer.
func (r *run) setup(master string, rep int) (time.Duration, error) {
	wal := filepath.Join(r.dir, fmt.Sprintf("wal-%d", rep))
	if master != "" {
		if err := copyDir(master, wal); err != nil {
			return 0, err
		}
	}
	ss, err := newStreams(r.name, r.seed)
	if err != nil {
		return 0, err
	}
	srv, err := startServer(r.bin, r.serverArgs(wal))
	if err != nil {
		return 0, err
	}
	lg := &loadgen{epoch: time.Now(), gs: ss.gs, name: r.name, log: r.logf}
	if lg.conns, err = dialConns(srv.addr, ss); err != nil {
		srv.kill()
		return 0, err
	}
	for c := 0; c < 2; c++ {
		if ss.npre[c] > 0 {
			if err := lg.burst(lg.conns[c], ss.preload[c], ss.npre[c]); err != nil {
				lg.close()
				srv.kill()
				return 0, fmt.Errorf("preload: %w", err)
			}
		}
	}
	if err := lg.burst(lg.conns[0], probeStream(r.name, r.seed), 1); err != nil {
		lg.close()
		srv.kill()
		return 0, fmt.Errorf("probe: %w", err)
	}
	d := time.Since(srv.started)
	r.srv, r.lg, r.ss = srv, lg, ss
	return d, nil
}

// probeStream is the setup's probe: one GET whose answer the initial
// state fixes.
func probeStream(workload string, seed int64) stream {
	switch workload {
	case "hot-mixed":
		return &fixedGet{prefix: 'h', id: 0, e: expect{kind: kGet, key: 0, val: hotInit(seed, 0), write: -1}}
	case "large-churn":
		return &fixedGet{prefix: 'u', id: churnKeys - 1, e: expect{kind: kGet, key: churnKeys - 1, val: churnInit(seed, churnKeys-1), write: -1}}
	}
	return &fixedGet{prefix: 'g', id: 0, e: expect{kind: kGet, key: 0, val: groupVal(0, initialConn, 0), write: -1}}
}

type fixedGet struct {
	prefix byte
	id     int32
	e      expect
}

func (f *fixedGet) next(dst []byte) ([]byte, expect) { return appendGet(dst, f.prefix, f.id), f.e }

// setups runs the workload's setup SetupRepeats times and keeps the
// last server running; it returns the median setup time and the
// exec-to-listening split of the kept server.
func (r *run) setups() (setupS float64, err error) {
	master, err := r.walMaster()
	if err != nil {
		return 0, err
	}
	var ts []float64
	for i := 0; i < r.wc.SetupRepeats; i++ {
		d, err := r.setup(master, i)
		if err != nil {
			return 0, err
		}
		ts = append(ts, d.Seconds())
		if i < r.wc.SetupRepeats-1 {
			r.lg.close()
			r.srv.stop()
			os.RemoveAll(filepath.Join(r.dir, fmt.Sprintf("wal-%d", i)))
		}
	}
	return median(ts), nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// stepWindows is how many windows a search step's verdict takes the
// median p99 over.
const stepWindows = 4

func (r *run) stepDur() time.Duration {
	return time.Duration(r.seconds * (1 - r.wc.NominalShare) / float64(r.cfg.SearchSteps) * 1e9)
}

// nominal runs warm-up, then the measured phase at the nominal rate.
// Every request of the measured phase counts. The phase's figures
// describe the server only if the sender kept its schedule, its lateness
// p99 staying below the median latency; a report line says whether it
// did. With pid > 0 it also returns the server CPU ticks the measured
// phase took.
func (r *run) nominal(pid int) (res phaseResult, cpu int64, err error) {
	// Write back the machine's dirty pages first: an fsync commits the
	// file system's journal, which waits for earlier writes (the build,
	// the setups' WAL directories) too, and those would land in the
	// workload's fsync latency.
	syscall.Sync()
	r.lg.runPhase(phaseOpts{rate: r.wc.NominalRPS, dur: time.Duration(r.cfg.WarmupS * 1e9), limitNs: r.limitNs(), drain: 10 * time.Second})
	var cpu0, cpu1 int64
	if pid > 0 {
		if cpu0, err = cpuTicks(pid); err != nil {
			return res, 0, err
		}
	}
	res = r.lg.runPhase(phaseOpts{
		rate: r.wc.NominalRPS, dur: time.Duration(r.seconds * r.wc.NominalShare * 1e9),
		limitNs: r.limitNs(), drain: 10 * time.Second,
	})
	if pid > 0 {
		if cpu1, err = cpuTicks(pid); err != nil {
			return res, 0, err
		}
	}
	lag, p50 := res.lag.quantile(0.99), res.all.quantile(0.5)
	verdict := "kept its schedule"
	if lag >= p50 {
		verdict = "FELL BEHIND its schedule: the latencies include the generator's own stalls"
	}
	fmt.Printf("# %s seed %d: nominal %.0f req/s, %d requests (%d writes), p50 %.4f ms, p99 %.4f ms, p99.write %.4f ms; send lag p99 %.4f ms, the sender %s\n",
		r.name, r.seed, r.wc.NominalRPS, res.all.n, res.write.n, ms(p50), ms(res.all.quantile(0.99)), ms(res.write.quantile(0.99)), ms(lag), verdict)
	return res, cpu1 - cpu0, nil
}

// search finds the highest rate that meets the limit with a staircase
// of SearchSteps fixed-length steps inside the frozen rate range. It
// starts at the workload's frozen start rate and moves up one factor
// after a passing step and down after a failing one; the factor starts
// at StairStart and halves (in log space) at every reversal, down to
// StairMin. Before its first reversal it can move by StairStart^steps,
// so a large gain or loss still registers. A step in which the sender
// could not keep its schedule is inconclusive and is repeated at the
// same rate. The estimate is the geometric mean of the last StairAverage
// rates tried, which hover around the threshold: averaging trials keeps
// one unlucky step on the shared machine from moving the figure much.
func (r *run) search() (maxRate float64, attempted, failed int64) {
	lo, hi := math.Log(r.wc.SearchLoRPS), math.Log(r.wc.SearchHiRPS)
	cur, f := math.Log(r.wc.SearchStartRPS), math.Log(r.cfg.StairStart)
	var tried []float64
	last := 0
	for k := 0; k < r.cfg.SearchSteps; k++ {
		tried = append(tried, cur)
		rate := math.Exp(cur)
		res := r.lg.runPhase(phaseOpts{rate: rate, dur: r.stepDur(), limitNs: r.limitNs(), stopEarly: true, drain: 10 * time.Second, windows: stepWindows})
		attempted += res.sent
		// A step cut short by overload leaves only its sent requests
		// owed; checker failures and lost replies still count.
		failed += res.failed
		dir := res.verdict(r.limitNs())
		fmt.Printf("# step %d: %.0f req/s verdict %d stopped %v sent %d answered %d window p99 %.4f ms send lag p99 %.4f ms\n",
			k, rate, dir, res.aborted, res.sent, res.answered, windowP99(res.win), ms(res.lag.quantile(0.99)))
		time.Sleep(100 * time.Millisecond) // let an overloaded step's queues empty
		if dir == 0 {
			continue
		}
		if last != 0 && dir != last {
			f = max(f/2, math.Log(r.cfg.StairMin))
		}
		last = dir
		cur = min(max(cur+float64(dir)*f, lo), hi)
	}
	sum := 0.0
	for _, x := range tried[len(tried)-r.cfg.StairAverage:] {
		sum += x
	}
	return math.Exp(sum / float64(r.cfg.StairAverage)), attempted, failed
}

// endToEnd is the untraced run: every end-to-end metric.
func (r *run) endToEnd() (*report, error) {
	rep := &report{}
	setupS, err := r.setups()
	if err != nil {
		return nil, err
	}
	defer func() {
		r.lg.close()
		r.srv.stop()
	}()
	pid := r.srv.pid()
	nom, cpu, err := r.nominal(pid)
	if err != nil {
		return nil, err
	}
	rep.attempted += nom.planned
	rep.failed += nom.planned - nom.answered
	maxRate, att, fail := r.search()
	rep.attempted += att
	rep.failed += fail
	rss, err := vmHWM(pid)
	if err != nil {
		return nil, err
	}
	if r.name == "durable-txn" {
		att, lost, err := r.crashCheck()
		if err != nil {
			return nil, err
		}
		rep.attempted += att
		rep.failed += lost
	}

	rep.set("setup_s", setupS, "s")
	rep.set("max_rate_rps", maxRate, "req/s")
	// Every request of the nominal phase counts; a failed or unanswered
	// one is in nom.all as a miss of any limit. The p99s swing with the
	// shared machine's stalls far more than any bound allows, so they are
	// printed but left out of the result object.
	rep.set("p50_ms", ms(nom.all.quantile(0.5)), "ms")
	rep.note("p99_ms", ms(nom.all.quantile(0.99)), "ms")
	rep.note("p99_ms.write", ms(nom.write.quantile(0.99)), "ms")
	rep.set("server_cpu_us_per_req", float64(cpu)/userHZ*1e6/float64(max(nom.answered, 1)), "us")
	rep.set("rss_mb", float64(rss)/(1<<20), "MiB")
	return rep, nil
}

// minTail is the fewest samples a p99 is taken from: ten beyond it.
const minTail = 1000

// windowP99 is the median over windows of each window's p99, in ms.
// Consecutive windows are merged until each group holds minTail
// samples, so every p99 has ten samples beyond it; a remainder too small
// for a group of its own joins the last group. A window's failed or
// unanswered requests are already excluded from its histogram; the step
// fails on them anyway.
func windowP99(win []winHist) float64 {
	var groups []hist
	var acc hist
	for i := range win {
		acc.merge(&win[i].all)
		if acc.n >= minTail {
			groups = append(groups, acc)
			acc.reset()
		}
	}
	switch {
	case len(groups) == 0:
		groups = append(groups, acc)
	case acc.n > 0:
		groups[len(groups)-1].merge(&acc)
	}
	p := make([]float64, len(groups))
	for i := range groups {
		p[i] = ms(groups[i].quantile(0.99))
	}
	return median(p)
}

// onSchedule returns the windows in which the sender kept its schedule:
// its lateness p99 stayed within maxLagNs. In the others the machine
// stalled the load generator itself, and what the window measured is
// the stall, not the server.
func onSchedule(win []winHist, maxLagNs int64) []winHist {
	var ok []winHist
	for i := range win {
		if win[i].lag.quantile(0.99) <= maxLagNs {
			ok = append(ok, win[i])
		}
	}
	return ok
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
