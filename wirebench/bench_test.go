package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dstm"
	"repro/internal/kv"
	"repro/internal/locktm"
	"repro/internal/nztm"
)

// TestHistQuantiles compares the histogram's percentiles with exact
// percentiles of the sorted samples: each must lie within the bucket
// resolution (1/64 relative) of the true value.
func TestHistQuantiles(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 7, 100, 10000, 200000} {
		var h hist
		samples := make([]int64, n)
		for i := range samples {
			// Log-uniform over 1ns..10s: exercises exact and scaled buckets.
			samples[i] = int64(math.Exp(rng.Float64() * math.Log(1e10)))
			h.record(samples[i])
		}
		sort.Slice(samples, func(a, b int) bool { return samples[a] < samples[b] })
		for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999, 1} {
			rank := int(q*float64(n) + 0.999999999)
			if rank < 1 {
				rank = 1
			}
			exact := samples[rank-1]
			got := h.quantile(q)
			if diff := got - exact; diff < 0 && -diff > exact/64+1 || diff > exact/64+1 {
				t.Errorf("n=%d q=%v: hist %d, exact %d", n, q, got, exact)
			}
		}
	}
}

// TestWindowP99CountsEverySample checks that a search step's windowed
// p99 takes in the windows left over after the last full group of
// minTail samples.
func TestWindowP99CountsEverySample(t *testing.T) {
	win := make([]winHist, 12)
	for i := range win {
		v := int64(1000)
		if i >= 10 {
			v = 5000 // the last 200 of 1,200 samples
		}
		win[i].all.recordN(v, 100)
	}
	if got := windowP99(win); math.Abs(got-0.005) > 0.005/64 {
		t.Fatalf("windowP99 = %v ms, want 0.005 ms: the leftover windows were dropped", got)
	}
}

func TestHistMergeAndAllocs(t *testing.T) {
	var a, b, all hist
	for i := int64(0); i < 5000; i++ {
		v := i * i
		all.record(v)
		if i%2 == 0 {
			a.record(v)
		} else {
			b.record(v)
		}
	}
	a.merge(&b)
	for _, q := range []float64{0.5, 0.99} {
		if a.quantile(q) != all.quantile(q) {
			t.Errorf("merged q%v = %d, want %d", q, a.quantile(q), all.quantile(q))
		}
	}
	var h hist
	if n := testing.AllocsPerRun(1000, func() { h.record(123456789) }); n != 0 {
		t.Errorf("record allocates %v times", n)
	}
}

// goodReply renders the reply a correct server gives to e. Reads of
// durable-txn groups answer the group's initial value.
func goodReply(e expect) string {
	switch e.kind {
	case kGet:
		return fmt.Sprintf("VALUE %d\n", e.val)
	case kGroupGet:
		return fmt.Sprintf("VALUE %d\n", groupVal(e.key, initialConn, 0))
	case kSet:
		return "OK\n"
	case kSetNew:
		return "OK NEW\n"
	case kDel:
		return "DELETED\n"
	case kCAS:
		return "SWAPPED\n"
	case kTxnW:
		return "OK\n" + strings.Repeat("QUEUED\n", 4) + "RESULTS 4\n" + strings.Repeat("OK\n", 4)
	}
	v := fmt.Sprintf("VALUE %d\n", groupVal(e.key, initialConn, 0))
	return "OK\n" + strings.Repeat("QUEUED\n", 4) + "RESULTS 4\n" + strings.Repeat(v, 4)
}

// checkStream runs a connection reader over replies to conn 0's first n
// requests of workload, after mutate has altered the rendered replies,
// and returns the failure fraction and the failure report.
func checkStream(t *testing.T, workload string, seed int64, n int, mutate func(exps []expect, replies []string) []string) (float64, string) {
	t.Helper()
	ss, err := newStreams(workload, seed)
	if err != nil {
		t.Fatal(err)
	}
	exps := make([]expect, n)
	var buf []byte
	for i := range exps {
		buf, exps[i] = ss.load[0].next(buf[:0])
	}
	replies := make([]string, n)
	for i, e := range exps {
		replies[i] = goodReply(e)
	}
	replies = mutate(exps, replies)
	var out bytes.Buffer
	r := &run{name: workload, seed: seed, errw: &out}
	lg := &loadgen{name: workload, gs: ss.gs, log: r.logf}
	c := &wireConn{ck: checker{br: bufio.NewReader(strings.NewReader(strings.Join(replies, ""))), gs: ss.gs}}
	in := make(chan expect, n)
	for _, e := range exps {
		in <- e
	}
	close(in)
	lg.read(c, in, 1e9, 0, 1)
	failed := int64(n) - c.answered.Load()
	return float64(failed) / float64(n), out.String()
}

func TestCheckerAcceptsCorrectStream(t *testing.T) {
	for _, w := range []string{"hot-mixed", "large-churn", "durable-txn"} {
		frac, out := checkStream(t, w, 3, 2000, func(_ []expect, r []string) []string { return r })
		if frac != 0 {
			t.Errorf("%s: fail_frac %v on a correct stream:\n%s", w, frac, out)
		}
	}
}

// TestCheckerMutations is the checker's mutation evidence: one altered
// reply must raise fail_frac above 0 and print the seed that
// reproduces it.
func TestCheckerMutations(t *testing.T) {
	const seed = 7
	cases := []struct {
		name, workload string
		mutate         func(exps []expect, r []string) []string
	}{
		{"wrong VALUE", "hot-mixed", func(exps []expect, r []string) []string {
			for i, e := range exps {
				if e.kind == kGet {
					r[i] = fmt.Sprintf("VALUE %d\n", e.val+1)
					break
				}
			}
			return r
		}},
		{"torn snapshot", "durable-txn", func(exps []expect, r []string) []string {
			written := map[int32]uint64{}
			for i, e := range exps {
				if e.kind == kTxnW {
					written[e.key] = e.val
				}
				if w, ok := written[e.key]; ok && e.kind == kTxnR {
					init := fmt.Sprintf("VALUE %d\n", groupVal(e.key, initialConn, 0))
					r[i] = "OK\n" + strings.Repeat("QUEUED\n", 4) + "RESULTS 4\n" + strings.Repeat(init, 3) + "VALUE " + strconv.FormatUint(w, 10) + "\n"
					break
				}
			}
			return r
		}},
		{"dropped reply", "large-churn", func(_ []expect, r []string) []string {
			return append(r[:100:100], r[101:]...)
		}},
	}
	for _, tc := range cases {
		frac, out := checkStream(t, tc.workload, seed, 2000, tc.mutate)
		if frac <= 0 {
			t.Errorf("%s: fail_frac %v, want > 0", tc.name, frac)
		}
		if want := fmt.Sprintf("-workload %s -seed %d", tc.workload, seed); !strings.Contains(out, want) {
			t.Errorf("%s: report %q lacks repro %q", tc.name, out, want)
		}
	}
}

func streamBytes(t *testing.T, workload string, seed int64, n int) [2][]byte {
	t.Helper()
	ss, err := newStreams(workload, seed)
	if err != nil {
		t.Fatal(err)
	}
	var out [2][]byte
	for c := 0; c < 2; c++ {
		for i := 0; i < ss.npre[c]; i++ {
			out[c], _ = ss.preload[c].next(out[c])
		}
		for i := 0; i < n; i++ {
			out[c], _ = ss.load[c].next(out[c])
		}
	}
	return out
}

// TestDeterministicGeneration: the same seed gives byte-identical request
// streams and large-churn WAL directories; another seed does not.
func TestDeterministicGeneration(t *testing.T) {
	for _, w := range []string{"hot-mixed", "large-churn", "durable-txn"} {
		a, b, c := streamBytes(t, w, 5, 20000), streamBytes(t, w, 5, 20000), streamBytes(t, w, 6, 20000)
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Errorf("%s conn %d: same seed, different streams", w, i)
			}
			if bytes.Equal(a[i], c[i]) {
				t.Errorf("%s conn %d: different seeds, same stream", w, i)
			}
		}
	}
	dir := t.TempDir()
	read := func(d string) map[string][]byte {
		files := map[string][]byte{}
		ents, err := os.ReadDir(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			b, err := os.ReadFile(filepath.Join(d, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = b
		}
		return files
	}
	var dirs []map[string][]byte
	for i, seed := range []int64{5, 5, 6} {
		d := filepath.Join(dir, strconv.Itoa(i))
		if err := writeChurnDir(d, seed); err != nil {
			t.Fatal(err)
		}
		dirs = append(dirs, read(d))
	}
	if len(dirs[0]) == 0 || fmt.Sprint(dirs[0]) != fmt.Sprint(dirs[1]) {
		t.Errorf("same seed, different WAL directories")
	}
	if fmt.Sprint(dirs[0]) == fmt.Sprint(dirs[2]) {
		t.Errorf("different seeds, same WAL directory")
	}
}

// TestEngineDecoratorFidelity: the decorator forwards TxRecycler and
// Releaser exactly when the wrapped engine's transactions have them, and
// a replay through it ends in the same store state as on the bare engine.
func TestEngineDecoratorFidelity(t *testing.T) {
	engines := []struct {
		name     string
		tm       func() core.TM
		rec, rel bool
	}{
		{"nztm", func() core.TM { return nztm.New() }, true, false},
		{"dstm", func() core.TM { return dstm.New() }, true, true},
		{"2pl", func() core.TM { return locktm.NewTwoPhase() }, false, false},
	}
	for _, e := range engines {
		inner := e.tm()
		tx := (&tracedTM{inner: inner, tr: newTracer()}).Begin(nil)
		_, rec := tx.(core.TxRecycler)
		_, rel := tx.(core.Releaser)
		_, innerRec := inner.Begin(nil).(core.TxRecycler)
		_, innerRel := inner.Begin(nil).(core.Releaser)
		if rec != e.rec || rel != e.rel || rec != innerRec || rel != innerRel {
			t.Errorf("%s: decorator recycler=%v releaser=%v, engine recycler=%v releaser=%v, want %v/%v",
				e.name, rec, rel, innerRec, innerRel, e.rec, e.rel)
		}

		var dumps [2][]kv.Pair
		for i, traced := range []bool{false, true} {
			tr := newTracer()
			var tm core.TM = e.tm()
			if traced {
				tm = &tracedTM{inner: tm, tr: tr}
			}
			st := kv.New(tm, 8, 4)
			ss, err := newStreams("large-churn", 9)
			if err != nil {
				t.Fatal(err)
			}
			onLockedThread(func() {
				rp := &replayer{s: tr.newSlot(0), se: st.NewSession(), tr: tr, ops: map[string]*opStats{}}
				defer tr.bind(rp.s)()
				for id := int32(0); id < 2000; id++ {
					if _, err := rp.se.Put(nil, keyName('u', id), churnInit(9, id)); err != nil {
						t.Error(err)
						return
					}
				}
				// Conn 0 owns even ids; replay only GETs and churn of its
				// share that the 2000-key prefix covers.
				var buf []byte
				for n := 0; n < 3000; n++ {
					var ex expect
					buf, ex = ss.load[0].next(buf[:0])
					if ex.key >= 2000 && ex.kind != kSetNew {
						continue
					}
					if err := rp.do(buf, ex); err != nil {
						t.Error(err)
						return
					}
				}
				if rp.bad != 0 {
					t.Errorf("%s: replay check failed: %s", e.name, rp.first)
				}
			})
			d, err := st.Dump(nil)
			if err != nil {
				t.Fatal(err)
			}
			dumps[i] = d
			if traced && len(tr.all[0].spans) == 0 {
				t.Errorf("%s: traced replay recorded no spans", e.name)
			}
		}
		if fmt.Sprint(dumps[0]) != fmt.Sprint(dumps[1]) {
			t.Errorf("%s: traced replay ends in a different store state", e.name)
		}
	}
}
