package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/kv"
)

func put(k string, v uint64) kv.Effect { return kv.Effect{Key: k, Val: v} }
func del(k string) kv.Effect           { return kv.Effect{Key: k, Del: true} }

// replayRef applies effect lists in order to a fresh map — the
// reference semantics recovery is checked against.
func replayRef(batches ...[]kv.Effect) map[string]uint64 {
	m := map[string]uint64{}
	for _, b := range batches {
		for _, e := range b {
			if e.Del {
				delete(m, e.Key)
			} else {
				m[e.Key] = e.Val
			}
		}
	}
	return m
}

// waitDurable blocks until the log goroutine has persisted seq.
func waitDurable(t *testing.T, l *Log, seq uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for l.DurableSeq() < seq {
		if time.Now().After(deadline) {
			t.Fatalf("DurableSeq stuck at %d, want %d", l.DurableSeq(), seq)
		}
		time.Sleep(time.Millisecond)
	}
}

func openT(t *testing.T, dir string, opts Options) (*Log, Recovered) {
	t.Helper()
	opts.Dir = dir
	l, rec, err := Open(opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return l, rec
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	batches := [][]kv.Effect{
		{put("a", 1), put("b", 2)},
		{del("a")},
		{put("c", 3), put("b", 9), del("missing")},
		{put("a", 7)},
	}
	l, rec := openT(t, dir, Options{Policy: SyncNever})
	if len(rec.State) != 0 || rec.LastSeq != 0 {
		t.Fatalf("fresh dir recovered non-empty: %+v", rec)
	}
	for _, b := range batches {
		if err := l.Append(b); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if got := l.LastSeq(); got != uint64(len(batches)) {
		t.Fatalf("LastSeq = %d, want %d", got, len(batches))
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, rec2 := openT(t, dir, Options{})
	defer l2.Close()
	want := replayRef(batches...)
	if !reflect.DeepEqual(rec2.State, want) {
		t.Fatalf("recovered %v, want %v", rec2.State, want)
	}
	if rec2.LastSeq != uint64(len(batches)) || rec2.TornTail {
		t.Fatalf("recovered meta %+v, want LastSeq=%d TornTail=false", rec2, len(batches))
	}
	// Appending after recovery continues the sequence.
	if err := l2.Append([]kv.Effect{put("d", 4)}); err != nil {
		t.Fatalf("Append after recovery: %v", err)
	}
	if got := l2.LastSeq(); got != uint64(len(batches))+1 {
		t.Fatalf("LastSeq after recovery append = %d, want %d", got, len(batches)+1)
	}
}

func TestTornTailRecordIgnored(t *testing.T) {
	for _, cut := range []int{1, 5, 7} { // bytes chopped off the tail
		dir := t.TempDir()
		l, _ := openT(t, dir, Options{Policy: SyncNever})
		good := [][]kv.Effect{{put("a", 1)}, {put("b", 2), del("a")}}
		for _, b := range good {
			if err := l.Append(b); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Append([]kv.Effect{put("torn", 99)}); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		seg := filepath.Join(dir, segName(1))
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(seg, fi.Size()-int64(cut)); err != nil {
			t.Fatal(err)
		}

		l2, rec := openT(t, dir, Options{})
		want := replayRef(good...)
		if !reflect.DeepEqual(rec.State, want) {
			t.Fatalf("cut=%d: recovered %v, want %v (torn record must be ignored, earlier must survive)", cut, rec.State, want)
		}
		if !rec.TornTail {
			t.Fatalf("cut=%d: TornTail not reported", cut)
		}
		if rec.LastSeq != 2 {
			t.Fatalf("cut=%d: LastSeq = %d, want 2", cut, rec.LastSeq)
		}
		// The log keeps working after tail repair, and the repaired tail
		// stays repaired on the next recovery.
		if err := l2.Append([]kv.Effect{put("after", 5)}); err != nil {
			t.Fatal(err)
		}
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
		_, rec3 := openT(t, dir, Options{})
		want["after"] = 5
		if !reflect.DeepEqual(rec3.State, want) {
			t.Fatalf("cut=%d: second recovery %v, want %v", cut, rec3.State, want)
		}
		if rec3.TornTail {
			t.Fatalf("cut=%d: torn tail reported again after repair", cut)
		}
	}
}

func TestCorruptMidChainRefused(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{Policy: SyncNever, SegmentBytes: 64})
	for i := 0; i < 8; i++ { // tiny segments force several rotations
		if err := l.Append([]kv.Effect{put(fmt.Sprintf("key%02d", i), uint64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Chop the FIRST segment: a hole before the tail must refuse to
	// recover rather than silently drop committed transactions.
	seg := filepath.Join(dir, segName(1))
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("Open recovered across a mid-chain hole")
	}
}

func TestSegmentRotationAndSnapshotTruncation(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{Policy: SyncNever, SegmentBytes: 256})
	var batches [][]kv.Effect
	for i := 0; i < 64; i++ {
		b := []kv.Effect{put(fmt.Sprintf("key%03d", i%16), uint64(i))}
		batches = append(batches, b)
		if err := l.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	waitDurable(t, l, 64)
	if st := l.Stats(); st.Segments < 3 {
		t.Fatalf("only %d segments after 64 records at 256-byte segments — rotation broken", st.Segments)
	}
	src := newFakeSource(1)
	src.shards[0] = replayRef(batches...)
	if err := l.WriteSnapshotInc(src); err != nil {
		t.Fatalf("WriteSnapshotInc: %v", err)
	}
	st := l.Stats()
	if st.SnapshotSeq != 64 {
		t.Fatalf("snapshot cut %d, want 64", st.SnapshotSeq)
	}
	if st.Segments > 2 {
		t.Fatalf("%d segments survive a snapshot covering every record; want <= 2 (active + at most one spanning the cut)", st.Segments)
	}
	// More appends after the snapshot land in the tail...
	after := []kv.Effect{put("key000", 999), del("key001")}
	if err := l.Append(after); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// ...and recovery = snapshot + tail replay.
	_, rec := openT(t, dir, Options{})
	want := replayRef(append(batches, after)...)
	if got := rec.Merged(); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
	if rec.SnapshotSeq != 64 {
		t.Fatalf("recovery used snapshot cut %d, want 64", rec.SnapshotSeq)
	}
	if rec.Records != 1 {
		t.Fatalf("replayed %d records on top of the snapshot, want 1", rec.Records)
	}
}

func TestGroupCommitConcurrentAlways(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{Policy: SyncAlways})
	const workers, each = 8, 50
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				key := fmt.Sprintf("w%d-%03d", w, i)
				if err := l.Append([]kv.Effect{put(key, uint64(i))}); err != nil {
					errs[w] = err
					return
				}
				// Under SyncAlways an acknowledged append is durable.
				if d := l.DurableSeq(); d == 0 {
					errs[w] = fmt.Errorf("acknowledged append with DurableSeq=0")
					return
				}
			}
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	if got := l.LastSeq(); got != workers*each {
		t.Fatalf("LastSeq = %d, want %d", got, workers*each)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec := openT(t, dir, Options{})
	if len(rec.State) != workers*each {
		t.Fatalf("recovered %d keys, want %d", len(rec.State), workers*each)
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < each; i++ {
			key := fmt.Sprintf("w%d-%03d", w, i)
			if v, ok := rec.State[key]; !ok || v != uint64(i) {
				t.Fatalf("recovered %s = %d,%v want %d,true", key, v, ok, i)
			}
		}
	}
}

func TestIntervalPolicyFlushesOnTimer(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{Policy: SyncInterval, Interval: 5 * time.Millisecond})
	defer l.Close()
	if err := l.Append([]kv.Effect{put("k", 1)}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for l.DurableSeq() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("interval policy never persisted the record")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	l, _ := openT(t, t.TempDir(), Options{Policy: SyncNever})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]kv.Effect{put("k", 1)}); err != ErrClosed {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil { // idempotent
		t.Fatalf("second Close: %v", err)
	}
}

// TestAppendSteadyStateAllocs locks in the hot-path discipline: once
// buffers are warm, Append performs no heap allocation (the group
// commit's pending buffer and the log goroutine's spare are reused).
func TestAppendSteadyStateAllocs(t *testing.T) {
	l, _ := openT(t, t.TempDir(), Options{Policy: SyncNever})
	defer l.Close()
	effects := []kv.Effect{put("warmkey-000", 1), put("warmkey-001", 2), del("warmkey-002")}
	for i := 0; i < 100; i++ { // warm pending/spare to steady size
		if err := l.Append(effects); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(500, func() {
		if err := l.Append(effects); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0.05 {
		t.Fatalf("Append allocates %.2f objects/op in the steady state, want 0", avg)
	}
}

// TestRecoverRefusesSnapshotGap pins the continuity check: when the
// snapshot that justified truncating old segments is lost, recovery
// must refuse rather than silently boot without the truncated records.
func TestRecoverRefusesSnapshotGap(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{Policy: SyncNever, SegmentBytes: 128})
	var batches [][]kv.Effect
	for i := 0; i < 32; i++ {
		b := []kv.Effect{put(fmt.Sprintf("key%03d", i), uint64(i))}
		batches = append(batches, b)
		if err := l.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	// Let the writer flush and rotate before snapshotting, so the
	// truncation actually deletes covered segments — the precondition
	// for the gap this test is about.
	waitDurable(t, l, 32)
	src := newFakeSource(1)
	src.shards[0] = replayRef(batches...)
	if err := l.WriteSnapshotInc(src); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments (err=%v)", err)
	}
	if segs[0] == filepath.Join(dir, segName(1)) {
		t.Fatal("truncation deleted nothing; the test premise needs covered segments gone")
	}
	if err := l.Append([]kv.Effect{put("tail", 1)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Losing the manifest loses the whole chain: its images alone are
	// never a snapshot.
	manifests, err := filepath.Glob(filepath.Join(dir, "manifest-*.mf"))
	if err != nil || len(manifests) != 1 {
		t.Fatalf("want exactly 1 manifest, got %v (err=%v)", manifests, err)
	}
	if err := os.Remove(manifests[0]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("recovery succeeded with the covering snapshot gone — committed records silently lost")
	}
}

// TestRecoverRefusesMissingMiddleSegment pins cross-segment
// continuity: deleting a middle segment must refuse recovery.
func TestRecoverRefusesMissingMiddleSegment(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{Policy: SyncNever, SegmentBytes: 128})
	for i := 0; i < 32; i++ {
		if err := l.Append([]kv.Effect{put(fmt.Sprintf("key%03d", i), uint64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) < 3 {
		t.Fatalf("want >= 3 segments, got %v (err=%v)", segs, err)
	}
	if err := os.Remove(segs[1]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("recovery succeeded across a missing middle segment")
	}
}
