package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync/atomic"
)

// kind is a request shape; it fixes the reply lines the checker reads.
type kind uint8

const (
	kGet      kind = iota // GET key            -> VALUE v
	kSet                  // SET existing key   -> OK
	kSetNew               // SET new key        -> OK NEW
	kDel                  // DEL live key       -> DELETED
	kCAS                  // CAS key old new    -> SWAPPED
	kTxnW                 // MULTI, 4 x SET, EXEC   -> OK, 4 x QUEUED, RESULTS 4, 4 x OK
	kTxnR                 // MULTI, 4 x GET, EXEC   -> OK, 4 x QUEUED, RESULTS 4, 4 x VALUE v (all equal)
	kGroupGet             // GET one key of a group -> VALUE v (a value written to that group)
)

// isWrite reports whether a request of kind k writes.
func (k kind) isWrite() bool { return k != kGet && k != kTxnR && k != kGroupGet }

// expect is one request as the sender issued it and the checker
// judges its reply: the model's prediction is fixed at generation time,
// so the stream and the checks are functions of the seed alone.
type expect struct {
	intended int64 // due time, ns since the load generator's epoch
	kind     kind
	key      int32  // key id, or group for the group kinds
	val      uint64 // value expected (GET, CAS old) or written
	write    int32  // index into the connection's durable write log, or -1
}

// stream generates one connection's request sequence. next appends the
// request bytes to dst and returns the request's expectation.
type stream interface {
	next(dst []byte) ([]byte, expect)
}

// mix64 is the SplitMix64 finalizer: the benchmark's deterministic
// source of initial values.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func connRand(seed int64, conn int) *rand.Rand {
	return rand.New(rand.NewSource(int64(mix64(uint64(seed)*2 + uint64(conn)))))
}

func appendKey(dst []byte, prefix byte, id int32) []byte {
	dst = append(dst, prefix)
	var num [8]byte
	s := strconv.AppendInt(num[:0], int64(id), 10)
	for i := len(s); i < 8; i++ {
		dst = append(dst, '0')
	}
	return append(dst, s...)
}

func keyName(prefix byte, id int32) string { return string(appendKey(nil, prefix, id)) }

func appendSet(dst []byte, prefix byte, id int32, v uint64) []byte {
	dst = append(dst, "SET "...)
	dst = appendKey(dst, prefix, id)
	dst = append(dst, ' ')
	dst = strconv.AppendUint(dst, v, 10)
	return append(dst, '\n')
}

func appendGet(dst []byte, prefix byte, id int32) []byte {
	dst = append(dst, "GET "...)
	dst = appendKey(dst, prefix, id)
	return append(dst, '\n')
}

// ---- hot-mixed: 1,024 keys, each connection owns the keys of its parity.

const hotKeys = 1024

type hotStream struct {
	rng  *rand.Rand
	keys []int32
	vals map[int32]uint64
}

func newHotStream(seed int64, conn int) *hotStream {
	s := &hotStream{rng: connRand(seed, conn), vals: map[int32]uint64{}}
	for id := int32(conn); id < hotKeys; id += 2 {
		s.keys = append(s.keys, id)
		s.vals[id] = hotInit(seed, id)
	}
	return s
}

func hotInit(seed int64, id int32) uint64 { return mix64(uint64(seed)<<20^uint64(id)) >> 1 }

func (s *hotStream) next(dst []byte) ([]byte, expect) {
	id := s.keys[s.rng.Intn(len(s.keys))]
	r := s.rng.Intn(100)
	switch {
	case r < 75:
		return appendGet(dst, 'h', id), expect{kind: kGet, key: id, val: s.vals[id], write: -1}
	case r < 95:
		v := s.rng.Uint64() >> 1
		s.vals[id] = v
		return appendSet(dst, 'h', id, v), expect{kind: kSet, key: id, val: v, write: -1}
	default:
		old, v := s.vals[id], s.rng.Uint64()>>1
		s.vals[id] = v
		dst = append(dst, "CAS "...)
		dst = appendKey(dst, 'h', id)
		dst = append(dst, ' ')
		dst = strconv.AppendUint(dst, old, 10)
		dst = append(dst, ' ')
		dst = strconv.AppendUint(dst, v, 10)
		return append(dst, '\n'), expect{kind: kCAS, key: id, val: old, write: -1}
	}
}

// hotPreload sets every key a connection owns to its initial value.
type hotPreload struct {
	seed int64
	id   int32
}

func (p *hotPreload) next(dst []byte) ([]byte, expect) {
	id := p.id
	p.id += 2
	v := hotInit(p.seed, id)
	return appendSet(dst, 'h', id, v), expect{kind: kSetNew, key: id, val: v, write: -1}
}

// ---- large-churn: 50,000 keys restored from a WAL directory; 90% GET,
// 5% SET of a new key, 5% DEL of a live key (churn ops alternate, so
// the live count stays at 50,000). Each connection owns its parity.

const churnKeys = 50000

func churnInit(seed int64, id int32) uint64 { return mix64(uint64(seed)<<32^uint64(id)+7) >> 1 }

type churnStream struct {
	seed   int64
	rng    *rand.Rand
	live   []int32
	vals   map[int32]uint64
	nextID int32
	churn  int
}

func newChurnStream(seed int64, conn int) *churnStream {
	s := &churnStream{seed: seed, rng: connRand(seed, conn), vals: map[int32]uint64{}, nextID: churnKeys + int32(conn)}
	for id := int32(conn); id < churnKeys; id += 2 {
		s.live = append(s.live, id)
	}
	return s
}

func (s *churnStream) val(id int32) uint64 {
	if v, ok := s.vals[id]; ok {
		return v
	}
	return churnInit(s.seed, id)
}

func (s *churnStream) next(dst []byte) ([]byte, expect) {
	if s.rng.Intn(100) < 90 {
		id := s.live[s.rng.Intn(len(s.live))]
		return appendGet(dst, 'u', id), expect{kind: kGet, key: id, val: s.val(id), write: -1}
	}
	s.churn++
	if s.churn%2 == 1 {
		id := s.nextID
		s.nextID += 2
		v := s.rng.Uint64() >> 1
		s.vals[id] = v
		s.live = append(s.live, id)
		return appendSet(dst, 'u', id, v), expect{kind: kSetNew, key: id, val: v, write: -1}
	}
	i := s.rng.Intn(len(s.live))
	id := s.live[i]
	s.live[i] = s.live[len(s.live)-1]
	s.live = s.live[:len(s.live)-1]
	delete(s.vals, id)
	dst = append(dst, "DEL "...)
	dst = appendKey(dst, 'u', id)
	return append(dst, '\n'), expect{kind: kDel, key: id, write: -1}
}

// ---- durable-txn: 64 groups of 4 keys shared by both connections. A
// written value encodes its group, writer and sequence number, so any
// read can be checked against the set of values ever issued.

const (
	txnGroups   = 64
	initialConn = 0xFF
)

func groupVal(g int32, conn int, seq uint64) uint64 {
	return uint64(g)<<48 | uint64(conn)<<40 | seq
}

// durableLog is one connection's record of issued group writes: the
// crash check needs each write's send and acknowledgement times.
type durableLog struct {
	issued atomic.Uint64 // sequence number of the last write generated
	writes []durableWrite
}

type durableWrite struct {
	group  int32
	val    uint64
	sentNs int64 // just before the write syscall carrying it
}

// groupShared is the state both durable-txn connections share.
type groupShared struct {
	logs [2]durableLog
}

// valid reports whether v may be read from group g: the initial value
// or a value some connection has already issued for g.
func (gs *groupShared) valid(g int32, v uint64) bool {
	if int32(v>>48) != g {
		return false
	}
	conn, seq := int(v>>40&0xFF), v&(1<<40-1)
	if conn == initialConn {
		return seq == 0
	}
	return conn < 2 && seq >= 1 && seq <= gs.logs[conn].issued.Load()
}

type txnStream struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	conn int
	gs   *groupShared
}

func newTxnStream(seed int64, conn int, gs *groupShared) *txnStream {
	rng := connRand(seed, conn)
	return &txnStream{rng: rng, zipf: rand.NewZipf(rng, 1.1, 1, txnGroups-1), conn: conn, gs: gs}
}

func appendGroupTxn(dst []byte, g int32, v uint64, read bool) []byte {
	dst = append(dst, "MULTI\n"...)
	for k := int32(0); k < 4; k++ {
		if read {
			dst = appendGet(dst, 'g', g*4+k)
		} else {
			dst = appendSet(dst, 'g', g*4+k, v)
		}
	}
	return append(dst, "EXEC\n"...)
}

func (s *txnStream) next(dst []byte) ([]byte, expect) {
	g := int32(s.zipf.Uint64())
	r := s.rng.Intn(100)
	switch {
	case r < 50:
		l := &s.gs.logs[s.conn]
		v := groupVal(g, s.conn, l.issued.Load()+1)
		l.writes = append(l.writes, durableWrite{group: g, val: v})
		l.issued.Add(1)
		return appendGroupTxn(dst, g, v, false), expect{kind: kTxnW, key: g, val: v, write: int32(len(l.writes) - 1)}
	case r < 80:
		return appendGroupTxn(dst, g, 0, true), expect{kind: kTxnR, key: g, write: -1}
	default:
		return appendGet(dst, 'g', g*4+int32(s.rng.Intn(4))), expect{kind: kGroupGet, key: g, write: -1}
	}
}

// groupPreload writes every group's initial value (connection 0 only).
type groupPreload struct{ g int32 }

func (p *groupPreload) next(dst []byte) ([]byte, expect) {
	g := p.g
	p.g++
	v := groupVal(g, initialConn, 0)
	return appendGroupTxn(dst, g, v, false), expect{kind: kTxnW, key: g, val: v, write: -1}
}

// workloadStreams returns the two connections' request streams and the
// preload streams with their request counts.
type streams struct {
	load    [2]stream
	preload [2]stream
	npre    [2]int
	gs      *groupShared
}

func newStreams(workload string, seed int64) (*streams, error) {
	ss := &streams{}
	switch workload {
	case "hot-mixed":
		for c := 0; c < 2; c++ {
			ss.load[c] = newHotStream(seed, c)
			ss.preload[c] = &hotPreload{seed: seed, id: int32(c)}
			ss.npre[c] = hotKeys / 2
		}
	case "large-churn":
		for c := 0; c < 2; c++ {
			ss.load[c] = newChurnStream(seed, c)
		}
	case "durable-txn":
		ss.gs = &groupShared{}
		for c := 0; c < 2; c++ {
			ss.load[c] = newTxnStream(seed, c, ss.gs)
		}
		ss.preload[0] = &groupPreload{}
		ss.npre[0] = txnGroups
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	return ss, nil
}

// keyPrefix is the first byte of a workload's key names.
func keyPrefix(workload string) byte {
	switch workload {
	case "hot-mixed":
		return 'h'
	case "large-churn":
		return 'u'
	}
	return 'g'
}
