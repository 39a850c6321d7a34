// Package repl is the WAL-shipping replication subsystem: a primary
// serves its write-ahead log — historical segments plus the live
// group-commit tail — to any number of replicas over a second
// listener, and replicas apply the records through the same
// transactional path recovery uses while serving snapshot-consistent
// reads.
//
// Wire protocol (all integers little-endian):
//
//	handshake (follower -> primary):
//	    [8] magic "OFREPL1\n"
//	    [8] from — seq of the first record the follower wants
//	              (its log's lastSeq+1)
//
//	stream (primary -> follower), length-prefixed messages:
//	    [1] type  [4] payload length  [payload]
//	    'S'  payload = snapshot chain bundle (wal OFBNDL1 format);
//	         sent when the follower's cursor precedes the oldest
//	         retained segment. The stream resumes at cut+1.
//	    'R'  payload = [8] primary durable seq, then zero or more WAL
//	         record frames (the exact on-disk framing). The seq lets
//	         the follower compute its lag; a frame-less 'R' is the
//	         hello/heartbeat.
//	    'E'  payload = error text; the primary is refusing the stream
//	         (e.g. the follower is ahead — divergence).
//
// Durability and acks: a record is shipped only once it is durable on
// the primary under the primary's own fsync policy, so with
// fsync=always a client ack strictly precedes the record reaching any
// replica. Replication is asynchronous — the window between ack and
// replica visibility is bounded by one shipping round trip plus the
// replica's apply; a promoted replica may therefore miss the last
// acked writes of a primary that died before shipping them, but never
// holds a gap: ingest reuses recovery's CRC + contiguity refusal, so
// a replica's log is always an exact prefix of the primary's.
package repl

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/wal"
)

const (
	magic = "OFREPL1\n"

	msgSnapshot = 'S'
	msgRecords  = 'R'
	msgError    = 'E'

	// maxMsg bounds a received payload (snapshots included).
	maxMsg = 1 << 30

	// handshakeTimeout bounds how long an accepted connection may take
	// to identify itself before the primary drops it.
	handshakeTimeout = 5 * time.Second

	// writeTimeout bounds one message write to a follower; a follower
	// that cannot drain within it is dropped (it will reconnect and
	// catch up from its own cursor).
	writeTimeout = 30 * time.Second
)

// writeMsg writes one length-prefixed message: typ, then head+body as
// the payload (either may be empty).
func writeMsg(w io.Writer, typ byte, head, body []byte) error {
	var hdr [5]byte
	hdr[0] = typ
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(head)+len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(head) > 0 {
		if _, err := w.Write(head); err != nil {
			return err
		}
	}
	if len(body) > 0 {
		if _, err := w.Write(body); err != nil {
			return err
		}
	}
	return nil
}

// readMsg reads one length-prefixed message.
func readMsg(r *bufio.Reader) (typ byte, payload []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[1:])
	if n > maxMsg {
		return 0, nil, fmt.Errorf("repl: message of %d bytes exceeds the %d limit", n, maxMsg)
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return hdr[0], payload, nil
}

// peer is one connected follower, tracked for stats.
type peer struct {
	conn    net.Conn
	tr      *wal.TailReader
	shipped uint64 // last seq shipped; guarded by Primary.mu
}

// Primary serves the log's record stream to followers. It works on any
// node whose log advances — a normal primary, or a replica whose
// ingest feeds its own followers (chaining) — because shipping reads
// the log's durable tail, not the write path.
type Primary struct {
	log *wal.Log

	mu     sync.Mutex
	lis    net.Listener
	peers  map[*peer]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewPrimary returns a replication server over the log. Call Listen
// then Serve.
func NewPrimary(log *wal.Log) *Primary {
	return &Primary{log: log, peers: make(map[*peer]struct{})}
}

// Listen binds the replication listener.
func (p *Primary) Listen(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	p.mu.Lock()
	p.lis = lis
	p.mu.Unlock()
	return nil
}

// Addr returns the bound replication address (nil before Listen).
func (p *Primary) Addr() net.Addr {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.lis == nil {
		return nil
	}
	return p.lis.Addr()
}

// Serve accepts followers until Close. Call in a goroutine.
func (p *Primary) Serve() {
	p.mu.Lock()
	lis := p.lis
	p.mu.Unlock()
	if lis == nil {
		return
	}
	for {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		pe := &peer{conn: conn}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			conn.Close()
			return
		}
		p.peers[pe] = struct{}{}
		p.wg.Add(1)
		p.mu.Unlock()
		go func() {
			defer p.wg.Done()
			p.servePeer(pe)
			p.mu.Lock()
			delete(p.peers, pe)
			p.mu.Unlock()
			conn.Close()
		}()
	}
}

// Close stops accepting, detaches every follower and waits for their
// serving goroutines.
func (p *Primary) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	lis := p.lis
	for pe := range p.peers {
		if pe.tr != nil {
			pe.tr.Cancel()
		}
		pe.conn.Close()
	}
	p.mu.Unlock()
	if lis != nil {
		lis.Close()
	}
	p.wg.Wait()
}

// PrimaryStats is the shipping-side replication summary.
type PrimaryStats struct {
	Peers       int    // connected followers
	LastShipped uint64 // newest seq shipped to any follower
	MinShipped  uint64 // oldest per-follower shipped seq (0 with no peers)
}

// Stats snapshots the follower set.
func (p *Primary) Stats() PrimaryStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := PrimaryStats{Peers: len(p.peers)}
	first := true
	for pe := range p.peers {
		if pe.shipped > st.LastShipped {
			st.LastShipped = pe.shipped
		}
		if first || pe.shipped < st.MinShipped {
			st.MinShipped = pe.shipped
		}
		first = false
	}
	return st
}

// servePeer runs one follower stream: handshake, optional snapshot,
// hello, then the durable tail until either side goes away.
func (p *Primary) servePeer(pe *peer) {
	conn := pe.conn
	conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	var hs [16]byte
	if _, err := io.ReadFull(conn, hs[:]); err != nil {
		return
	}
	conn.SetReadDeadline(time.Time{})
	if string(hs[:8]) != magic {
		return
	}
	from := binary.LittleEndian.Uint64(hs[8:])

	w := bufio.NewWriterSize(conn, 64<<10)
	send := func(typ byte, head, body []byte) error {
		conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		if err := writeMsg(w, typ, head, body); err != nil {
			return err
		}
		return w.Flush()
	}
	sendErr := func(format string, args ...any) {
		send(msgError, []byte(fmt.Sprintf(format, args...)), nil)
	}

	if last := p.log.LastSeq(); from > last+1 {
		// The follower holds records this log never wrote — it diverged
		// (e.g. an old promoted primary). Refuse rather than ship a hole.
		sendErr("follower at seq %d is ahead of the log (last seq %d) — diverged history, refusing", from-1, last)
		return
	}

	sendSnapshot := func() (uint64, error) {
		img, cut, ok, err := p.log.NewestSnapshot()
		if err != nil || !ok {
			sendErr("follower needs records from seq %d but they are truncated and no snapshot is available", from)
			if err == nil {
				err = errors.New("repl: no snapshot")
			}
			return 0, err
		}
		if err := send(msgSnapshot, img, nil); err != nil {
			return 0, err
		}
		return cut + 1, nil
	}

	if from < p.log.OldestRetainedSeq() {
		next, err := sendSnapshot()
		if err != nil {
			return
		}
		from = next
	}

	tr := p.log.NewTailReader(from)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	pe.tr = tr
	pe.shipped = from - 1
	p.mu.Unlock()

	var head [8]byte
	hello := func() error {
		binary.LittleEndian.PutUint64(head[:], p.log.DurableSeq())
		return send(msgRecords, head[:], nil)
	}
	if err := hello(); err != nil {
		return
	}

	var scratch []byte
	for {
		frames, err := tr.Next(scratch)
		switch {
		case err == nil:
		case errors.Is(err, wal.ErrSnapshotNeeded):
			// A snapshot truncated the follower's cursor mid-stream; ship
			// the snapshot and resume after its cut.
			next, serr := sendSnapshot()
			if serr != nil {
				return
			}
			tr = p.log.NewTailReader(next)
			p.mu.Lock()
			pe.tr = tr
			p.mu.Unlock()
			if err := hello(); err != nil {
				return
			}
			continue
		default:
			sendErr("log stream ended: %v", err)
			return
		}
		scratch = frames
		binary.LittleEndian.PutUint64(head[:], p.log.DurableSeq())
		if err := send(msgRecords, head[:], frames); err != nil {
			return
		}
		p.mu.Lock()
		pe.shipped = tr.NextSeq() - 1
		p.mu.Unlock()
	}
}
