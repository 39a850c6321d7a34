package wal

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Recovered reports what Open reconstructed from the log directory.
type Recovered struct {
	// State holds the tail: every effect replayed past the snapshot
	// cut. The snapshot part lives in Base, so State alone is the
	// complete store content only when no snapshot was found — iterate
	// with Each or materialize with Merged instead of reading State
	// directly.
	State map[string]uint64
	// Base holds the snapshot chain's per-shard images (nil when no
	// snapshot was found) in wire form (see ShardBase),
	// deliberately not merged into a map — loading an image is file
	// read + CRC + one validating walk with no per-entry hash+insert
	// or allocation, which is what keeps chain recovery bounded by
	// dirty-set + tail rather than paying map construction over the
	// whole store. Keys overridden or deleted by the tail are shadowed
	// via State and Tombstones.
	Base []ShardBase
	// Tombstones are the keys the tail deleted when a chain was loaded:
	// they may still appear in Base and must be skipped when merging.
	Tombstones map[string]struct{}
	// Keys is the recovered entry count — it survives a consumer
	// nil-ing State/Base after loading them.
	Keys int
	// LastSeq is the highest sequence number recovered; appending
	// resumes at LastSeq+1.
	LastSeq uint64
	// SnapshotSeq is the cut of the snapshot used (0 = none found).
	SnapshotSeq uint64
	// Records is the number of log records replayed on top of the
	// snapshot.
	Records int
	// TornTail reports that the last segment ended in an incomplete or
	// CRC-invalid record — the expected shape of a crash mid-write. The
	// torn bytes were truncated away; every record before them
	// survived.
	TornTail bool
}

// Each calls fn once per recovered key with its final value, walking
// the chain base (skipping entries the tail overrode or deleted) and
// then the tail itself. It stops on the first error.
func (r *Recovered) Each(fn func(key string, val uint64) error) error {
	for s := range r.Base {
		err := r.Base[s].walk(func(k string, v uint64) error {
			if _, ok := r.State[k]; ok {
				return nil
			}
			if _, ok := r.Tombstones[k]; ok {
				return nil
			}
			return fn(k, v)
		})
		if err != nil {
			return err
		}
	}
	for k, v := range r.State {
		if err := fn(k, v); err != nil {
			return err
		}
	}
	return nil
}

// Merged materializes the full recovered state as one map — the
// convenience for checks and small stores; the server loads via Each
// and never builds this map.
func (r *Recovered) Merged() map[string]uint64 {
	m := make(map[string]uint64, r.Keys)
	r.Each(func(k string, v uint64) error {
		m[k] = v
		return nil
	})
	return m
}

// Open recovers the log directory (creating it if missing) and returns
// a Log ready to append, together with the recovered state: the latest
// valid snapshot chain, with every log record after its cut replayed
// on top. A torn final record — a crash mid-write — is truncated away;
// a corrupt record anywhere before the tail is an error, because
// replaying past a hole would silently drop committed transactions.
// A whole-store snap-*.snap image, the snapshot format of earlier
// releases, is also an error: it may hold the only copy of history the
// log no longer carries, so skipping it could recover a silently
// truncated store. Appending resumes in a fresh segment numbered after
// the last existing one.
func Open(opts Options) (*Log, Recovered, error) {
	opts.fill()
	rec := Recovered{State: map[string]uint64{}}
	if err := opts.FS.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, rec, err
	}
	ents, err := opts.FS.ReadDir(opts.Dir)
	if err != nil {
		return nil, rec, err
	}

	var segIdxs []int
	var cuts []uint64
	for _, e := range ents {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
			// An interrupted snapshot or manifest write; rename never
			// happened, so no complete chain references it.
			opts.FS.Remove(filepath.Join(opts.Dir, name))
		case parseSegIdx(name) >= 0:
			segIdxs = append(segIdxs, parseSegIdx(name))
		case isLegacySnapName(name):
			return nil, rec, fmt.Errorf("wal: %s: whole-store snapshot images are no longer read; recover this directory with a release that reads them and let it cut a chain snapshot", filepath.Join(opts.Dir, name))
		default:
			if cut, ok := parseManifestName(name); ok {
				cuts = append(cuts, cut)
			}
		}
	}
	sort.Ints(segIdxs)
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] > cuts[j] })

	// Newest loadable chain wins; an unreadable one (half-written
	// before an old crash, bitrot) falls back to the one before it —
	// correctness is unaffected because the full log tail since that
	// older cut is replayed. A chain loads only whole: any missing or
	// corrupt referenced image poisons the entire chain (loadChain), so
	// recovery never sees a partial chain — the same all-or-nothing
	// discipline as the structural-hole refusal below.
	for _, cut := range cuts {
		base, err := loadChain(opts.FS, opts.Dir, cut)
		if err != nil {
			continue
		}
		rec.Base = base
		rec.Tombstones = map[string]struct{}{}
		rec.SnapshotSeq = cut
		rec.LastSeq = cut
		break
	}

	l := &Log{
		opts: opts,
		wake: make(chan struct{}, 1),
		quit: make(chan struct{}),
		done: make(chan struct{}),
		exec: make(chan execReq),
	}
	l.cond = sync.NewCond(&l.mu)

	// next is the continuity cursor: the seq the next frame must carry.
	// Zero means "not yet anchored" (anchored by the first segment's
	// header).
	var next uint64
	for i, idx := range segIdxs {
		last := i == len(segIdxs)-1
		if err := l.replaySegment(idx, i == 0, last, &rec, &next); err != nil {
			return nil, rec, err
		}
	}

	// Count recovered keys. This pass doubles as the chain's structural
	// validation: each image's entry stream is walked exactly once
	// (bounds-checked by ShardBase.walk), so Open never hands back a
	// base it could not fully read.
	rec.Keys = len(rec.State)
	shadowed := len(rec.State) != 0 || len(rec.Tombstones) != 0
	for s := range rec.Base {
		err := rec.Base[s].walk(func(k string, _ uint64) error {
			if shadowed {
				if _, ok := rec.State[k]; ok {
					return nil
				}
				if _, ok := rec.Tombstones[k]; ok {
					return nil
				}
			}
			rec.Keys++
			return nil
		})
		if err != nil {
			return nil, rec, fmt.Errorf("wal: snapshot chain at cut %d: %w; refusing to recover from an unreadable base", rec.SnapshotSeq, err)
		}
	}
	nextIdx := 1
	if n := len(segIdxs); n > 0 {
		nextIdx = segIdxs[n-1] + 1
	}
	l.lastSeq = rec.LastSeq
	l.durableSeq = rec.LastSeq
	l.snapSeq = rec.SnapshotSeq
	if err := l.openSegment(nextIdx, rec.LastSeq+1); err != nil {
		return nil, rec, err
	}
	go l.run()
	return l, rec, nil
}

// replaySegment replays one segment file into rec, registering it in
// the live segment list. In the last segment a torn tail is truncated
// off; anywhere else it is corruption and an error.
//
// Sequence continuity is enforced: record seqs increment by exactly
// one, within and across segments, and the first surviving segment
// must adjoin the snapshot cut (firstSeq <= cut+1). A gap means
// committed records went missing — a snapshot lost after its segments
// were truncated away, or a deleted middle segment — and replaying
// past it would silently drop committed transactions, so recovery
// refuses instead.
func (l *Log) replaySegment(idx int, first, last bool, rec *Recovered, next *uint64) error {
	path := filepath.Join(l.opts.Dir, segName(idx))
	b, err := l.opts.FS.ReadFile(path)
	if err != nil {
		return err
	}
	if len(b) < segHeaderLen || string(b[:len(segMagic)]) != segMagic {
		if !last {
			return fmt.Errorf("wal: %s: bad segment header", path)
		}
		// A crash between file creation and the header fsync; the
		// segment carries nothing.
		rec.TornTail = len(b) > 0
		return l.opts.FS.Remove(path)
	}
	firstSeq := binary.LittleEndian.Uint64(b[len(segMagic):])
	if first {
		// The oldest surviving segment must adjoin the snapshot:
		// everything before it was truncated as covered.
		if firstSeq > rec.SnapshotSeq+1 {
			return fmt.Errorf("wal: %s: log starts at seq %d but the snapshot covers only up to %d — records %d..%d are missing (lost or unreadable snapshot?); refusing to recover a hole",
				path, firstSeq, rec.SnapshotSeq, rec.SnapshotSeq+1, firstSeq-1)
		}
		*next = firstSeq
	} else if firstSeq != *next {
		return fmt.Errorf("wal: %s: segment starts at seq %d, want %d — a middle segment is missing; refusing to recover a hole",
			path, firstSeq, *next)
	}
	l.segs = append(l.segs, segment{idx: idx, firstSeq: firstSeq, path: path})
	off := segHeaderLen
	for off < len(b) {
		seq, payload, n, ok := parseFrame(b[off:])
		if !ok {
			if !last {
				return fmt.Errorf("wal: %s: corrupt record at offset %d (not the log tail)", path, off)
			}
			rec.TornTail = true
			return l.opts.FS.Truncate(path, int64(off))
		}
		if seq != *next {
			return fmt.Errorf("wal: %s: record seq %d at offset %d, want %d — refusing to recover a hole", path, seq, off, *next)
		}
		*next = seq + 1
		if seq > rec.SnapshotSeq {
			if err := applyPayload(rec.State, rec.Tombstones, payload); err != nil {
				return fmt.Errorf("wal: %s: record %d: %w", path, seq, err)
			}
			rec.Records++
		}
		if seq > rec.LastSeq {
			rec.LastSeq = seq
		}
		off += n
	}
	return nil
}

// parseSegIdx extracts the index of a segment file name, or -1.
func parseSegIdx(name string) int {
	rest, ok := strings.CutPrefix(name, "wal-")
	if !ok {
		return -1
	}
	rest, ok = strings.CutSuffix(rest, ".seg")
	if !ok {
		return -1
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 {
		return -1
	}
	return n
}

// isLegacySnapName reports whether name is a whole-store snapshot image
// (snap-<seq>.snap) written by an earlier release. Open refuses such a
// directory rather than recover without the image.
func isLegacySnapName(name string) bool {
	return strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap")
}
