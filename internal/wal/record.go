package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/kv"
)

// On-disk formats. Everything is little-endian; varints are Go's
// encoding/binary uvarints.
//
// Segment file (wal-<idx>.seg):
//
//	[8]  magic "OFWAL1\n\x00"
//	[8]  first sequence number the segment may contain
//	then frames, back to back.
//
// Frame (one committed transaction):
//
//	[4]  body length
//	[4]  IEEE CRC32 of body
//	body = uvarint seq
//	       uvarint effect count
//	       effects: tag byte (0 put, 1 del), uvarint keylen, key bytes,
//	                and for put a uvarint value
//
// A frame whose header is short, whose body is cut off, or whose CRC
// does not match is a torn tail: recovery ignores it and every byte
// after it. Frames reuse the byte-rendering discipline of the wire
// path (internal/server/conn.go): records are appended into a reused
// pending buffer with binary.AppendUvarint, no per-record allocation.
//
// Snapshots are chains of per-shard images under a manifest; their
// formats are described in chain.go.

const (
	segMagic = "OFWAL1\n\x00"

	segHeaderLen   = 16
	frameHeaderLen = 8

	tagPut = 0
	tagDel = 1
)

// appendFrame renders one committed transaction's effects as a frame
// at the end of p and returns the grown slice. It performs no
// allocation beyond p's amortized growth.
func appendFrame(p []byte, seq uint64, effects []kv.Effect) []byte {
	start := len(p)
	p = append(p, 0, 0, 0, 0, 0, 0, 0, 0) // length + crc placeholders
	body := len(p)
	p = binary.AppendUvarint(p, seq)
	p = binary.AppendUvarint(p, uint64(len(effects)))
	for i := range effects {
		e := &effects[i]
		if e.Del {
			p = append(p, tagDel)
			p = binary.AppendUvarint(p, uint64(len(e.Key)))
			p = append(p, e.Key...)
		} else {
			p = append(p, tagPut)
			p = binary.AppendUvarint(p, uint64(len(e.Key)))
			p = append(p, e.Key...)
			p = binary.AppendUvarint(p, e.Val)
		}
	}
	binary.LittleEndian.PutUint32(p[start:], uint32(len(p)-body))
	binary.LittleEndian.PutUint32(p[start+4:], crc32.ChecksumIEEE(p[body:]))
	return p
}

// parseFrame reads the frame at the start of b. ok is false when b
// does not hold a complete, CRC-valid frame — the torn-tail signal.
func parseFrame(b []byte) (seq uint64, payload []byte, frameLen int, ok bool) {
	if len(b) < frameHeaderLen {
		return 0, nil, 0, false
	}
	n := int(binary.LittleEndian.Uint32(b))
	crc := binary.LittleEndian.Uint32(b[4:])
	if n < 1 || len(b) < frameHeaderLen+n {
		return 0, nil, 0, false
	}
	body := b[frameHeaderLen : frameHeaderLen+n]
	if crc32.ChecksumIEEE(body) != crc {
		return 0, nil, 0, false
	}
	seq, sn := binary.Uvarint(body)
	if sn <= 0 {
		return 0, nil, 0, false
	}
	return seq, body[sn:], frameHeaderLen + n, true
}

// applyPayload replays one frame's effects onto state. When tombs is
// non-nil (chain recovery: state is only the tail over a separate base)
// deletes are additionally recorded there so base entries they shadow
// can be skipped at merge time; puts clear any earlier tombstone.
func applyPayload(state map[string]uint64, tombs map[string]struct{}, payload []byte) error {
	count, n := binary.Uvarint(payload)
	if n <= 0 {
		return fmt.Errorf("wal: bad effect count")
	}
	payload = payload[n:]
	for i := uint64(0); i < count; i++ {
		if len(payload) == 0 {
			return fmt.Errorf("wal: effect list cut short")
		}
		tag := payload[0]
		payload = payload[1:]
		klen, n := binary.Uvarint(payload)
		if n <= 0 || uint64(len(payload[n:])) < klen {
			return fmt.Errorf("wal: bad key length")
		}
		key := string(payload[n : n+int(klen)])
		payload = payload[n+int(klen):]
		switch tag {
		case tagPut:
			val, n := binary.Uvarint(payload)
			if n <= 0 {
				return fmt.Errorf("wal: bad value")
			}
			payload = payload[n:]
			state[key] = val
			if tombs != nil {
				delete(tombs, key)
			}
		case tagDel:
			delete(state, key)
			if tombs != nil {
				tombs[key] = struct{}{}
			}
		default:
			return fmt.Errorf("wal: unknown effect tag %d", tag)
		}
	}
	return nil
}
