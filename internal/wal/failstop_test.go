package wal

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/kv"
)

// TestFailStopAlwaysWriteError: under SyncAlways an injected write
// error must fail the blocked committer's ack, latch the log, and fail
// every later append fast — and recovery must come back with exactly
// the acked records.
func TestFailStopAlwaysWriteError(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.NewInjector(faultfs.OS, faultfs.Plan{
		Kind: faultfs.ErrIO, Target: faultfs.RecordWrite, After: 2,
	})
	l, _ := openT(t, dir, Options{Policy: SyncAlways, FS: inj})
	inj.Arm()

	batches := [][]kv.Effect{
		{put("a", 1)}, {put("b", 2)}, {put("a", 3)},
	}
	for i, b := range batches[:2] {
		if err := l.Append(b); err != nil {
			t.Fatalf("append %d before fault: %v", i, err)
		}
	}
	err := l.Append(batches[2])
	if err == nil {
		t.Fatal("append at fault point was acked")
	}
	if !errors.Is(err, ErrFailStop) {
		t.Fatalf("committer error does not match ErrFailStop: %v", err)
	}
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("committer error lost the EIO cause: %v", err)
	}
	if err := l.Append([]kv.Effect{put("c", 9)}); !errors.Is(err, ErrFailStop) {
		t.Fatalf("append after latch: want fail-fast ErrFailStop, got %v", err)
	}
	if got := l.DurableSeq(); got != 2 {
		t.Fatalf("DurableSeq after fault = %d, want 2", got)
	}
	if l.Err() == nil {
		t.Fatal("Err() not latched")
	}
	l.Close()

	_, rec := openT(t, dir, Options{})
	want := replayRef(batches[:2]...)
	if len(rec.State) != len(want) {
		t.Fatalf("recovered %v, want %v", rec.State, want)
	}
	for k, v := range want {
		if rec.State[k] != v {
			t.Fatalf("recovered %v, want %v", rec.State, want)
		}
	}
}

// TestFailStopAlwaysSyncError: same contract when the fsync (not the
// write) fails — the frame may be on disk, but the committer must not
// be acked and the log must latch.
func TestFailStopAlwaysSyncError(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.NewInjector(faultfs.OS, faultfs.Plan{
		Kind: faultfs.ErrIO, Target: faultfs.FileSync, After: 1,
	})
	l, _ := openT(t, dir, Options{Policy: SyncAlways, FS: inj})
	inj.Arm()

	if err := l.Append([]kv.Effect{put("a", 1)}); err != nil {
		t.Fatalf("append before fault: %v", err)
	}
	err := l.Append([]kv.Effect{put("b", 2)})
	if !errors.Is(err, ErrFailStop) || !errors.Is(err, syscall.EIO) {
		t.Fatalf("want fail-stop EIO on fsync fault, got %v", err)
	}
	if got := l.DurableSeq(); got != 1 {
		t.Fatalf("DurableSeq after fsync fault = %d, want 1", got)
	}
	l.Close()

	// The unacked record was written (only its fsync failed), so
	// recovery may legitimately surface it — but never lose record 1.
	_, rec := openT(t, dir, Options{})
	if rec.State["a"] != 1 {
		t.Fatalf("acked record lost: recovered %v", rec.State)
	}
}

// TestFailStopIntervalLatches: under SyncInterval the failing fsync
// happens on the timer, after acks — the loss window the policy
// documents — but the log must still latch and fail every subsequent
// append, bounding the damage.
func TestFailStopIntervalLatches(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.NewInjector(faultfs.OS, faultfs.Plan{
		Kind: faultfs.ErrIO, Target: faultfs.FileSync, After: 0,
	})
	l, _ := openT(t, dir, Options{Policy: SyncInterval, Interval: time.Millisecond, FS: inj})
	inj.Arm()

	if err := l.Append([]kv.Effect{put("a", 1)}); err != nil {
		t.Fatalf("append: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for l.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("interval fsync fault never latched")
		}
		time.Sleep(time.Millisecond)
	}
	if err := l.Append([]kv.Effect{put("b", 2)}); !errors.Is(err, ErrFailStop) {
		t.Fatalf("append after latch: %v", err)
	}
	l.Close()
}

// TestRecoveryUnderDiskFaults drives a fixed append workload into a log
// whose filesystem fails in a scheduled way, then recovers the
// directory with the real OS and checks the recovered state is the
// replay of some prefix of the written batches that covers every acked
// batch — the acked prefix exactly, or acked plus written-but-unacked
// tail records, never a hole and never a lost ack.
func TestRecoveryUnderDiskFaults(t *testing.T) {
	const appends = 20
	cases := []struct {
		name       string
		plan       faultfs.Plan
		segBytes   int64
		snapshotAt int  // append index to snapshot after; -1 = never
		wantLatch  bool // log must refuse all writes after the fault
	}{
		{
			name:     "short write in record",
			plan:     faultfs.Plan{Kind: faultfs.ShortWrite, Target: faultfs.RecordWrite, After: 3, Cut: 0.4},
			segBytes: 1 << 20, snapshotAt: -1, wantLatch: true,
		},
		{
			name:     "short write in segment header",
			plan:     faultfs.Plan{Kind: faultfs.ShortWrite, Target: faultfs.HeaderWrite, After: 0, Cut: 0.5},
			segBytes: 64, snapshotAt: -1, wantLatch: true,
		},
		{
			name:     "enospc mid-rotation",
			plan:     faultfs.Plan{Kind: faultfs.NoSpace, Target: faultfs.HeaderWrite, After: 0, Cut: 0.25},
			segBytes: 64, snapshotAt: -1, wantLatch: true,
		},
		{
			name:     "fsync EIO",
			plan:     faultfs.Plan{Kind: faultfs.ErrIO, Target: faultfs.FileSync, After: 4},
			segBytes: 1 << 20, snapshotAt: -1, wantLatch: true,
		},
		{
			// The one-shard cut writes its image, then the manifest temp
			// file; After: 1 tears the manifest temp file.
			name:     "torn snapshot temp file",
			plan:     faultfs.Plan{Kind: faultfs.ShortWrite, Target: faultfs.SnapshotWrite, After: 1, Cut: 0.6},
			segBytes: 1 << 20, snapshotAt: 10, wantLatch: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			inj := faultfs.NewInjector(faultfs.OS, tc.plan)
			l, _ := openT(t, dir, Options{Policy: SyncAlways, SegmentBytes: tc.segBytes, FS: inj})
			inj.Arm()

			var batches [][]kv.Effect
			acked := 0
			faulted := false
			snapErr := false
			for i := 0; i < appends; i++ {
				b := []kv.Effect{put(fmt.Sprintf("key%02d", i), uint64(i+1))}
				if i%5 == 4 {
					b = append(b, del(fmt.Sprintf("key%02d", i-4)))
				}
				batches = append(batches, b)
				err := l.Append(b)
				if err == nil {
					if faulted && tc.wantLatch {
						t.Fatalf("append %d acked after the log had already failed", i)
					}
					acked++
				} else {
					if !errors.Is(err, ErrFailStop) {
						t.Fatalf("append %d: non-fail-stop error %v", i, err)
					}
					faulted = true
				}
				if i == tc.snapshotAt {
					src := newFakeSource(1)
					src.shards[0] = replayRef(batches[:acked]...)
					if err := l.WriteSnapshotInc(src); err != nil {
						snapErr = true
					}
				}
			}
			if fired, _ := inj.Fired(); !fired {
				t.Fatalf("plan %v never fired in %d appends", tc.plan, appends)
			}
			if tc.wantLatch {
				if !faulted {
					t.Fatal("fault fired but no append ever failed")
				}
				if l.Err() == nil {
					t.Fatal("Err() not latched")
				}
			} else {
				if faulted {
					t.Fatal("non-latching fault failed an append")
				}
				if tc.snapshotAt >= 0 && !snapErr {
					t.Fatal("snapshot fault did not surface in WriteSnapshotInc")
				}
			}
			l.Close()

			// Recover with the real OS: what is on disk is what survived.
			l2, rec, err := Open(Options{Dir: dir})
			if err != nil {
				t.Fatalf("recovery refused: %v (acked=%d)", err, acked)
			}
			defer l2.Close()
			// No half-written snapshot temp may survive recovery.
			if ents, err := os.ReadDir(dir); err == nil {
				for _, e := range ents {
					if strings.HasSuffix(e.Name(), ".tmp") {
						t.Fatalf("recovery left %s behind", e.Name())
					}
				}
			}
			state := rec.Merged()
			k, ok := matchPrefix(state, batches, acked)
			if !ok {
				t.Fatalf("recovered state %v is not the replay of any prefix covering the %d acked batches", state, acked)
			}
			t.Logf("acked=%d recovered prefix=%d torn=%v", acked, k, rec.TornTail)
		})
	}
}

// matchPrefix reports whether state equals replayRef(batches[:k]) for
// some k with acked <= k <= len(batches), returning the matching k.
func matchPrefix(state map[string]uint64, batches [][]kv.Effect, acked int) (int, bool) {
	ref := replayRef(batches[:acked]...)
	for k := acked; ; k++ {
		if mapsEqual(state, ref) {
			return k, true
		}
		if k == len(batches) {
			return 0, false
		}
		for _, e := range batches[k] {
			if e.Del {
				delete(ref, e.Key)
			} else {
				ref[e.Key] = e.Val
			}
		}
	}
}

func mapsEqual(a, b map[string]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}
