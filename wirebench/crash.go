package main

import (
	"bufio"
	"fmt"
	"net"
	"path/filepath"
	"time"
)

// crashCheck ends durable-txn: it SIGKILLs the server in the middle of
// a burst at the nominal rate, restarts it on the same WAL directory,
// and reads every group in one snapshot. A group must hold four equal
// values: its last acknowledged value or a later one. A write W is
// "later" unless some acknowledged write to the group was sent after
// W's acknowledgement arrived (that write is then serialized after W).
// It returns the groups checked and the groups that lost an
// acknowledged write.
func (r *run) crashCheck() (checked, lost int64, err error) {
	burst := 2 * time.Second
	killAt := time.AfterFunc(burst/2, r.srv.kill)
	r.lg.log = func(string, ...any) {} // the kill breaks the burst's replies by design
	r.lg.runPhase(phaseOpts{rate: r.wc.NominalRPS, dur: burst, limitNs: r.limitNs(), drain: 5 * time.Second})
	killAt.Stop()
	r.srv.kill()
	r.lg.close()

	// Per group: the latest send time of any acknowledged write, and
	// each issued value's acknowledgement time (0 = never acknowledged).
	acked := map[uint64]int64{}
	for _, c := range r.lg.conns {
		for _, a := range c.acks {
			w := r.ss.gs.logs[c.id].writes[a.write]
			acked[w.val] = a.ns
		}
	}
	var maxSent [txnGroups]int64
	for c := range r.ss.gs.logs {
		for _, w := range r.ss.gs.logs[c].writes {
			if _, ok := acked[w.val]; ok && w.sentNs > maxSent[w.group] {
				maxSent[w.group] = w.sentNs
			}
		}
	}

	srv, err := startServer(r.bin, r.serverArgs(filepath.Join(r.dir, fmt.Sprintf("wal-%d", r.wc.SetupRepeats-1))))
	if err != nil {
		return 0, 0, fmt.Errorf("restart after kill: %w", err)
	}
	r.srv = srv
	nc, err := net.Dial("tcp", srv.addr)
	if err != nil {
		return 0, 0, err
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(30 * time.Second))
	var req []byte
	for g := int32(0); g < txnGroups; g++ {
		req = appendGroupTxn(req, g, 0, true)
	}
	if _, err := nc.Write(req); err != nil {
		return 0, 0, err
	}
	ck := checker{br: bufio.NewReader(nc), gs: r.ss.gs}
	for g := int32(0); g < txnGroups; g++ {
		e := expect{kind: kTxnR, key: g, write: -1}
		vals, bad, err := ck.readSnapshot(&e)
		if err != nil {
			return checked, lost, fmt.Errorf("read group %d after restart: %w", g, err)
		}
		checked++
		ack, isAcked := acked[vals]
		switch {
		case bad != "":
			lost++
			r.logf("after crash: %s", bad)
		case vals == groupVal(g, initialConn, 0) && maxSent[g] == 0:
		case isAcked && ack < maxSent[g]:
			lost++
			r.logf("after crash: group %d holds %d, overwritten by an acknowledged write sent after its ack", g, vals)
		case !isAcked && vals == groupVal(g, initialConn, 0):
			lost++
			r.logf("after crash: group %d lost every acknowledged write", g)
		}
	}
	return checked, lost, nil
}
