package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/kv"
	"repro/internal/wal"
)

// churnSource is a synthetic wal.SnapshotSource over large-churn's
// initial keys, split into contiguous per-shard ranges. The first
// churnStale keys are imaged with a stale value that the log tail then
// overwrites, so recovery has both a chain to load and a tail to
// replay, and the recovered state is exactly churnInit.
type churnSource struct{ seed int64 }

const (
	churnShards = 8
	churnStale  = 512 // keys rewritten by the tail after the cut
)

func (s churnSource) Shards() int                 { return churnShards }
func (s churnSource) DirtyEpochLocked(int) uint64 { return 1 }
func (s churnSource) DumpShard(i int) ([]kv.Pair, error) {
	lo, hi := i*churnKeys/churnShards, (i+1)*churnKeys/churnShards
	pairs := make([]kv.Pair, 0, hi-lo)
	for id := int32(lo); id < int32(hi); id++ {
		v := churnInit(s.seed, id)
		if id < churnStale {
			v ^= 1
		}
		pairs = append(pairs, kv.Pair{Key: keyName('u', id), Val: v})
	}
	return pairs, nil
}

// writeChurnDir writes large-churn's initial state into dir with the
// public wal API: one chain snapshot, then a tail of 8-effect records.
func writeChurnDir(dir string, seed int64) error {
	l, _, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncNever})
	if err != nil {
		return err
	}
	if err := l.WriteSnapshotInc(churnSource{seed}); err != nil {
		l.Close()
		return err
	}
	var batch []kv.Effect
	for id := int32(0); id < churnStale; id++ {
		batch = append(batch, kv.Effect{Key: keyName('u', id), Val: churnInit(seed, id)})
		if len(batch) == 8 {
			if err := l.Append(batch); err != nil {
				l.Close()
				return err
			}
			batch = batch[:0]
		}
	}
	return l.Close()
}

// copyDir copies the regular files of src (one level) into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			return fmt.Errorf("copy %s: %s is not a regular file", src, e.Name())
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
