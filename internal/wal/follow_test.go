package wal

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/kv"
)

// drainReader reads frames at the cursor until count records arrive,
// applying them to a reference map. The reader must not block once the
// records are durable.
func drainReader(t *testing.T, tr *TailReader, count int) map[string]uint64 {
	t.Helper()
	state := map[string]uint64{}
	var scratch []byte
	got := 0
	var next uint64
	for got < count {
		frames, err := tr.Next(scratch)
		if err != nil {
			t.Fatalf("Next after %d record(s): %v", got, err)
		}
		scratch = frames
		if err := DecodeFrames(frames, func(seq uint64, effects []kv.Effect) error {
			if next != 0 && seq != next {
				t.Fatalf("stream seq %d, want %d", seq, next)
			}
			next = seq + 1
			for _, e := range effects {
				if e.Del {
					delete(state, e.Key)
				} else {
					state[e.Key] = e.Val
				}
			}
			got++
			return nil
		}); err != nil {
			t.Fatalf("DecodeFrames: %v", err)
		}
	}
	return state
}

func TestTailReaderLiveTail(t *testing.T) {
	l, _ := openT(t, t.TempDir(), Options{Policy: SyncNever})
	defer l.Close()

	batches := [][]kv.Effect{
		{put("a", 1), put("b", 2)},
		{del("a")},
		{put("c", 3)},
	}
	for _, b := range batches {
		if err := l.Append(b); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	waitDurable(t, l, uint64(len(batches)))

	tr := l.NewTailReader(1)
	got := drainReader(t, tr, len(batches))
	if want := replayRef(batches...); !reflect.DeepEqual(got, want) {
		t.Fatalf("streamed state = %v, want %v", got, want)
	}
	if tr.NextSeq() != uint64(len(batches))+1 {
		t.Fatalf("NextSeq = %d, want %d", tr.NextSeq(), len(batches)+1)
	}
}

// TestTailReaderFollowsLiveAppends pins the blocking contract: a reader
// positioned past the durable tail waits, then delivers the next record
// as soon as the group commit persists it.
func TestTailReaderFollowsLiveAppends(t *testing.T) {
	l, _ := openT(t, t.TempDir(), Options{Policy: SyncAlways})
	defer l.Close()
	if err := l.Append([]kv.Effect{put("a", 1)}); err != nil {
		t.Fatalf("Append: %v", err)
	}

	tr := l.NewTailReader(2)
	type res struct {
		state map[string]uint64
	}
	ch := make(chan res, 1)
	go func() {
		ch <- res{state: drainReader(t, tr, 1)}
	}()
	select {
	case <-ch:
		t.Fatalf("Next returned before record 2 existed")
	case <-time.After(20 * time.Millisecond):
	}
	if err := l.Append([]kv.Effect{put("b", 7)}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	select {
	case r := <-ch:
		if r.state["b"] != 7 {
			t.Fatalf("streamed state = %v, want b=7", r.state)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("Next did not observe the new record")
	}
}

// TestTailReaderRotation forces segment rotation and catches a cold
// reader up across several segment files.
func TestTailReaderRotation(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{Policy: SyncNever, SegmentBytes: 256})
	defer l.Close()

	var batches [][]kv.Effect
	for i := 0; i < 64; i++ {
		b := []kv.Effect{put(key4(i%8), uint64(i)), put("pad-key-to-force-rotation", uint64(i))}
		batches = append(batches, b)
		if err := l.Append(b); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	waitDurable(t, l, uint64(len(batches)))
	if segs := l.Stats().Segments; segs < 3 {
		t.Fatalf("want >= 3 segments after rotation, got %d", segs)
	}

	got := drainReader(t, l.NewTailReader(1), len(batches))
	if want := replayRef(batches...); !reflect.DeepEqual(got, want) {
		t.Fatalf("streamed state = %v, want %v", got, want)
	}
}

// TestTailReaderTornTail pins that a torn trailing frame is never
// shipped: after crash recovery truncates it, a reader streams exactly
// the surviving records and then blocks for (durable) record N+1.
func TestTailReaderTornTail(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{Policy: SyncNever})
	batches := [][]kv.Effect{
		{put("a", 1)},
		{put("b", 2)},
		{put("c", 3)},
	}
	for _, b := range batches {
		if err := l.Append(b); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Tear the last frame: chop 3 bytes off the only segment.
	seg := filepath.Join(dir, segName(1))
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if err := os.WriteFile(seg, b[:len(b)-3], 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	l2, rec := openT(t, dir, Options{Policy: SyncNever})
	defer l2.Close()
	if !rec.TornTail || rec.LastSeq != 2 {
		t.Fatalf("recovery = %+v, want torn tail with last seq 2", rec)
	}
	got := drainReader(t, l2.NewTailReader(1), 2)
	if want := replayRef(batches[:2]...); !reflect.DeepEqual(got, want) {
		t.Fatalf("streamed state = %v, want %v", got, want)
	}

	// The torn record must not be shippable; only a fresh append is.
	tr := l2.NewTailReader(3)
	done := make(chan map[string]uint64, 1)
	go func() { done <- drainReader(t, tr, 1) }()
	select {
	case <-done:
		t.Fatalf("reader shipped a record past the truncated tail")
	case <-time.After(20 * time.Millisecond):
	}
	if err := l2.Append([]kv.Effect{put("d", 4)}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	waitDurable(t, l2, 3)
	st := <-done
	if st["d"] != 4 {
		t.Fatalf("post-recovery record = %v, want d=4", st)
	}
}

func TestTailReaderCancel(t *testing.T) {
	l, _ := openT(t, t.TempDir(), Options{Policy: SyncNever})
	defer l.Close()
	tr := l.NewTailReader(1)
	errc := make(chan error, 1)
	go func() {
		_, err := tr.Next(nil)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	tr.Cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("cancelled Next = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("Cancel did not unblock Next")
	}
}

// TestTailReaderSnapshotNeeded pins the truncation contract: a cursor
// older than the oldest retained segment gets ErrSnapshotNeeded, and the
// newest snapshot bundle round-trips through DecodeSnapshot.
func TestTailReaderSnapshotNeeded(t *testing.T) {
	dir := t.TempDir()
	l0, _ := openT(t, dir, Options{Policy: SyncNever, SegmentBytes: 128})
	var batches [][]kv.Effect
	for i := 0; i < 16; i++ {
		b := []kv.Effect{put(key4(i), uint64(i*10))}
		batches = append(batches, b)
		if err := l0.Append(b); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	waitDurable(t, l0, 16)
	src := newFakeSource(1)
	src.shards[0] = replayRef(batches...)
	if err := l0.WriteSnapshotInc(src); err != nil {
		t.Fatalf("WriteSnapshotInc: %v", err)
	}
	if err := l0.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen: the in-memory tail is cold, the pre-cut segments are gone
	// — the shape a follower's stale cursor meets after a primary
	// restart (a live primary would still serve the cursor from its
	// in-memory tail, which is also fine: those are real records).
	l, _ := openT(t, dir, Options{Policy: SyncNever, SegmentBytes: 128})
	defer l.Close()
	if _, err := l.NewTailReader(1).Next(nil); !errors.Is(err, ErrSnapshotNeeded) {
		t.Fatalf("truncated cursor Next = %v, want ErrSnapshotNeeded", err)
	}

	img, cut, ok, err := l.NewestSnapshot()
	if err != nil || !ok {
		t.Fatalf("NewestSnapshot: ok=%v err=%v", ok, err)
	}
	if cut != 16 {
		t.Fatalf("snapshot cut = %d, want 16", cut)
	}
	dcut, state, err := DecodeSnapshot(img)
	if err != nil || dcut != cut {
		t.Fatalf("DecodeSnapshot: cut=%d err=%v", dcut, err)
	}
	if want := replayRef(batches...); !reflect.DeepEqual(state, want) {
		t.Fatalf("snapshot state = %v, want %v", state, want)
	}

	// A cursor exactly at cut+1 streams the live tail, not a snapshot.
	if err := l.Append([]kv.Effect{put("fresh", 1)}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	waitDurable(t, l, 17)
	got := drainReader(t, l.NewTailReader(cut+1), 1)
	if got["fresh"] != 1 {
		t.Fatalf("post-cut stream = %v, want fresh=1", got)
	}
}

func TestValidateAndAppendFramesRefusal(t *testing.T) {
	var stream []byte
	stream = EncodeFrame(stream, 1, []kv.Effect{put("a", 1)})
	stream = EncodeFrame(stream, 2, []kv.Effect{put("b", 2)})

	if first, last, n, err := ValidateFrames(stream); err != nil || first != 1 || last != 2 || n != 2 {
		t.Fatalf("ValidateFrames = (%d,%d,%d,%v), want (1,2,2,nil)", first, last, n, err)
	}

	// A gap inside the stream is refused.
	gapped := EncodeFrame(nil, 1, []kv.Effect{put("a", 1)})
	gapped = EncodeFrame(gapped, 3, []kv.Effect{put("c", 3)})
	if _, _, _, err := ValidateFrames(gapped); err == nil || !strings.Contains(err.Error(), "hole") {
		t.Fatalf("gapped ValidateFrames = %v, want hole refusal", err)
	}

	// A flipped byte is refused (CRC).
	corrupt := append([]byte(nil), stream...)
	corrupt[len(corrupt)-1] ^= 0xff
	if _, _, _, err := ValidateFrames(corrupt); err == nil {
		t.Fatalf("corrupt ValidateFrames succeeded")
	}

	l, _ := openT(t, t.TempDir(), Options{Policy: SyncNever})
	defer l.Close()

	// A stream that does not adjoin the log's tail is refused.
	ahead := EncodeFrame(nil, 5, []kv.Effect{put("x", 1)})
	if err := l.AppendFrames(ahead); err == nil || !strings.Contains(err.Error(), "hole") {
		t.Fatalf("non-adjoining AppendFrames = %v, want hole refusal", err)
	}
	if err := l.AppendFrames(corrupt); err == nil {
		t.Fatalf("corrupt AppendFrames succeeded")
	}

	// The valid stream ingests with original seqs and recovers.
	if err := l.AppendFrames(stream); err != nil {
		t.Fatalf("AppendFrames: %v", err)
	}
	if l.LastSeq() != 2 {
		t.Fatalf("LastSeq after ingest = %d, want 2", l.LastSeq())
	}
	waitDurable(t, l, 2)
	got := drainReader(t, l.NewTailReader(1), 2)
	if got["a"] != 1 || got["b"] != 2 {
		t.Fatalf("ingested stream state = %v", got)
	}
}

// TestInstallSnapshot pins the open-log install path: history is
// replaced, seqs jump to the cut, appends continue past it, and a
// re-open recovers image+tail.
func TestInstallSnapshot(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{Policy: SyncNever})
	if err := l.Append([]kv.Effect{put("stale", 1)}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	waitDurable(t, l, 1)

	img := testBundle(100, []kv.Pair{{Key: "a", Val: 1}, {Key: "b", Val: 2}})
	cut, err := l.InstallSnapshot(img)
	if err != nil {
		t.Fatalf("InstallSnapshot: %v", err)
	}
	if cut != 100 || l.LastSeq() != 100 || l.DurableSeq() != 100 {
		t.Fatalf("post-install cut=%d last=%d durable=%d, want 100", cut, l.LastSeq(), l.DurableSeq())
	}

	// A stale bundle (cut behind the log) is refused.
	if _, err := l.InstallSnapshot(testBundle(50, nil)); err == nil {
		t.Fatalf("stale InstallSnapshot succeeded")
	}

	if err := l.Append([]kv.Effect{put("c", 3)}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	waitDurable(t, l, 101)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, rec := openT(t, dir, Options{Policy: SyncNever})
	defer l2.Close()
	if rec.SnapshotSeq != 100 || rec.LastSeq != 101 {
		t.Fatalf("recovery = %+v, want snapshot cut 100 last seq 101", rec)
	}
	want := map[string]uint64{"a": 1, "b": 2, "c": 3}
	if got := rec.Merged(); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered state = %v, want %v", got, want)
	}
}

func key4(i int) string {
	const digits = "0123456789"
	return "key" + string([]byte{digits[(i/10)%10], digits[i%10]})
}
