package bench

// Experiment E16: recovery time at production scale — chained
// incremental snapshots vs one full cut. The claim of the chain format
// is that restart cost is bounded by dirty-set size + log-tail length
// instead of store size: a store that cuts cheap incremental snapshots
// whenever ~1% of its keys have churned restarts from the newest chain
// plus a short tail, while a store whose only affordable cut was one
// full dump long ago restarts from that cut plus every record since.
//
// The two directories are built from the same synthetic 10M-key state
// (OFTM_E16_KEYS overrides the size — CI runs a truncated row) by a
// synthetic wal.SnapshotSource that partitions the key space into
// contiguous per-shard ranges, so the benchmark measures the wal layer
// alone with no store or engine in the loop:
//
// Both directories are measured at the same point in their snapshot
// schedule: the worst case, a crash immediately before the next
// scheduled cut, so the tail is one full inter-cut interval long.
// The schedules are equal-overhead: a full dump writes ~100x the bytes
// of one 1%-dirty incremental cut, so at the same snapshot budget full
// cuts happen ~100x less often and their worst-case tail is ~100x
// longer.
//
//   - recover-incremental: a full chain cut, 1% churn confined to one
//     of 128 shards (0.78% of keys), an incremental cut that re-images
//     only that shard and truncates the churn, then a tail of keys/100
//     effects (one full 1%-churn interval). Recovery loads the chain
//     (wire-form per-shard images, no per-entry hashing) and replays
//     the short tail.
//   - recover-full: one full cut (the first chain cut after Open, every
//     shard imaged) at the same base state, then a tail of keys effects
//     (one full inter-cut interval at the equal-overhead cadence) with
//     no further cut.
//
// The headline figure is the speedup of incremental over full wal.Open
// time, each the median of e16Opens opens of the same directory; the
// acceptance gate is >= 5x at 10M keys.

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"time"

	"repro/internal/kv"
	"repro/internal/wal"
)

// e16Shards partitions the synthetic key space; one dirty shard is
// 1/128 = 0.78% of keys, inside the <=1%-dirty working-set bound the
// experiment claims.
const e16Shards = 128

// e16Opens is how many times each directory is opened; the median
// open time is the figure. Single opens of the same directory on a
// shared machine swing by up to 2x with page-cache state.
const e16Opens = 5

func e16Key(i int) string { return fmt.Sprintf("user%012d", i) }

// chainSource is a synthetic wal.SnapshotSource over a contiguous key
// range: shard s owns keys [s*n/S, (s+1)*n/S). Epochs are bumped by
// the benchmark driver to mark churned shards dirty.
type chainSource struct {
	n      int
	epochs [e16Shards]uint64
}

func (s *chainSource) Shards() int                   { return e16Shards }
func (s *chainSource) DirtyEpochLocked(i int) uint64 { return s.epochs[i] }
func (s *chainSource) DumpShard(i int) ([]kv.Pair, error) {
	lo, hi := i*s.n/e16Shards, (i+1)*s.n/e16Shards
	pairs := make([]kv.Pair, 0, hi-lo)
	for k := lo; k < hi; k++ {
		pairs = append(pairs, kv.Pair{Key: e16Key(k), Val: uint64(k + 1)})
	}
	return pairs, nil
}

// RecoveryResult is one E16 measurement.
type RecoveryResult struct {
	Mode    string // "incremental" or "full"
	Keys    int    // synthetic store size
	TailOps int    // effects past the last cut (replayed at recovery)
	Setup   time.Duration
	Open    time.Duration // median wal.Open wall time — the figure
	RecKeys uint64        // keys the recovery reports (sanity)
}

// e16Append writes ops effects over shard 0's key range as records of
// eight effects each, and waits until the log goroutine has drained
// them (rotation and truncation bookkeeping happen on flush).
func e16Append(l *wal.Log, src *chainSource, ops int) error {
	hi := src.n / e16Shards
	var batch [8]kv.Effect
	for done := 0; done < ops; {
		n := len(batch)
		if ops-done < n {
			n = ops - done
		}
		for j := 0; j < n; j++ {
			batch[j] = kv.Effect{Key: e16Key((done + j) % hi), Val: uint64(done + j + 1)}
		}
		if err := l.Append(batch[:n]); err != nil {
			return err
		}
		done += n
	}
	want := l.Stats().Appended
	for l.Stats().Durable < want {
		time.Sleep(time.Millisecond)
	}
	return nil
}

// RunRecovery builds one E16 directory for the given mode and measures
// wal.Open over it e16Opens times.
func RunRecovery(mode string, keys int) (RecoveryResult, error) {
	res := RecoveryResult{Mode: mode, Keys: keys}
	dir, err := os.MkdirTemp("", "oftm-e16-*")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)

	t0 := time.Now()
	l, _, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncNever, SegmentBytes: 4 << 20})
	if err != nil {
		return res, err
	}
	src := &chainSource{n: keys}
	churn := keys / 100 // 1% of keys churn between incremental cuts
	switch mode {
	case "incremental":
		// Base chain, then one churn+cut cycle so the measured directory
		// is a real incremental chain (127 linked images + 1 fresh), then
		// the short tail an every-1%-churn cut schedule leaves behind.
		if err := l.WriteSnapshotInc(src); err != nil {
			return res, err
		}
		if err := e16Append(l, src, churn); err != nil {
			return res, err
		}
		src.epochs[0]++
		if err := l.WriteSnapshotInc(src); err != nil {
			return res, err
		}
		res.TailOps = churn
	case "full":
		// The first cut after Open images every shard.
		if err := l.WriteSnapshotInc(src); err != nil {
			return res, err
		}
		res.TailOps = keys
	default:
		l.Close()
		return res, fmt.Errorf("bench: unknown recovery mode %q", mode)
	}
	if err := e16Append(l, src, res.TailOps); err != nil {
		return res, err
	}
	if err := l.Close(); err != nil {
		return res, err
	}
	res.Setup = time.Since(t0)

	opens := make([]time.Duration, e16Opens)
	for i := range opens {
		t1 := time.Now()
		l2, rec, err := wal.Open(wal.Options{Dir: dir})
		if err != nil {
			return res, err
		}
		opens[i] = time.Since(t1)
		res.RecKeys = uint64(rec.Keys)
		if rec.Base == nil {
			l2.Close()
			return res, fmt.Errorf("bench: %s recovery did not load a chain", mode)
		}
		if rec.Keys != keys {
			l2.Close()
			return res, fmt.Errorf("bench: recovered %d keys, want %d", rec.Keys, keys)
		}
		if err := l2.Close(); err != nil {
			return res, err
		}
	}
	sort.Slice(opens, func(i, j int) bool { return opens[i] < opens[j] })
	res.Open = opens[len(opens)/2]
	return res, nil
}

// e16Keys returns the synthetic store size: OFTM_E16_KEYS when set (the
// CI truncated row), else the 10M-key production scale the ROADMAP
// targets.
func e16Keys() int {
	if s := os.Getenv("OFTM_E16_KEYS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n >= e16Shards {
			return n
		}
	}
	return 10_000_000
}

// E16 measures restart time against store size: incremental chain +
// short tail vs full cut + equal-overhead long tail. The final
// "E16 speedup:" line is machine-readable — CI's snapshot-smoke job
// gates on it with a truncated key count.
func E16(w io.Writer) {
	keys := e16Keys()
	t := NewTable(fmt.Sprintf("Experiment E16 — recovery at scale: incremental chain vs full cut (%d keys, %d shards)", keys, e16Shards),
		"mode", "tail ops", "setup", "wal.Open (median)", "keys recovered")
	times := map[string]time.Duration{}
	for _, mode := range []string{"incremental", "full"} {
		r, err := RunRecovery(mode, keys)
		if err != nil {
			fmt.Fprintf(w, "E16 %s: %v\n", mode, err)
			return
		}
		times[mode] = r.Open
		t.Add("recover-"+r.Mode, r.TailOps,
			r.Setup.Round(time.Millisecond), r.Open.Round(time.Millisecond), r.RecKeys)
	}
	fmt.Fprint(w, t.String())
	fmt.Fprintln(w, "Both load the same wire-form per-shard images; the incremental chain replays 1% of keys,")
	fmt.Fprintln(w, "the full cut the 100x tail its rare cuts leave behind.")
	fmt.Fprintf(w, "E16 speedup: %.2fx (incremental %v vs full %v)\n",
		times["full"].Seconds()/times["incremental"].Seconds(),
		times["incremental"].Round(time.Millisecond), times["full"].Round(time.Millisecond))
}
