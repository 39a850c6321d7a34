package main

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
)

// checker reads one connection's replies and judges each against the
// expectation its request was generated with. hot-mixed and
// large-churn replies are predicted exactly by the per-connection
// model; durable-txn reads are checked for group equality and against
// the set of values issued so far.
type checker struct {
	br *bufio.Reader
	gs *groupShared
}

func (ck *checker) line() ([]byte, error) {
	l, err := ck.br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	return bytes.TrimRight(l, "\r\n"), nil
}

// parseValue returns v from a "VALUE v" line.
func parseValue(l []byte) (uint64, bool) {
	rest, ok := bytes.CutPrefix(l, []byte("VALUE "))
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseUint(string(rest), 10, 64)
	return v, err == nil
}

// read consumes the reply to e. bad is empty for a correct reply and
// otherwise says what was wrong; err reports a broken connection.
func (ck *checker) read(e *expect) (bad string, err error) {
	switch e.kind {
	case kTxnW, kTxnR:
		_, bad, err := ck.readSnapshot(e)
		return bad, err
	}
	l, err := ck.line()
	if err != nil {
		return "", err
	}
	var want string
	switch e.kind {
	case kGet:
		if v, ok := parseValue(l); ok && v == e.val {
			return "", nil
		}
		want = "VALUE " + strconv.FormatUint(e.val, 10)
	case kGroupGet:
		if v, ok := parseValue(l); ok && ck.gs.valid(e.key, v) {
			return "", nil
		}
		want = fmt.Sprintf("VALUE of group %d", e.key)
	case kSet:
		want = "OK"
	case kSetNew:
		want = "OK NEW"
	case kDel:
		want = "DELETED"
	case kCAS:
		want = "SWAPPED"
	}
	if string(l) == want {
		return "", nil
	}
	return fmt.Sprintf("got %q, want %s", l, want), nil
}

// readSnapshot consumes MULTI's OK, four QUEUED, and EXEC's RESULTS
// block; for a read it also returns the snapshot's value.
func (ck *checker) readSnapshot(e *expect) (first uint64, bad string, err error) {
	note := func(s string) {
		if bad == "" {
			bad = s
		}
	}
	for i := 0; i < 5; i++ {
		l, err := ck.line()
		if err != nil {
			return 0, "", err
		}
		if want := "QUEUED"; i == 0 && string(l) != "OK" || i > 0 && string(l) != want {
			note(fmt.Sprintf("MULTI line %d: got %q", i, l))
		}
	}
	l, err := ck.line()
	if err != nil {
		return 0, "", err
	}
	rest, ok := bytes.CutPrefix(l, []byte("RESULTS "))
	if !ok {
		note(fmt.Sprintf("EXEC: got %q", l))
		return 0, bad, nil
	}
	n, perr := strconv.Atoi(string(rest))
	if perr != nil || n != 4 {
		note(fmt.Sprintf("EXEC: got %q, want RESULTS 4", l))
	}
	for i := 0; i < n; i++ {
		l, err := ck.line()
		if err != nil {
			return 0, "", err
		}
		if e.kind == kTxnW {
			if s := string(l); s != "OK" && s != "OK NEW" {
				note(fmt.Sprintf("EXEC result %d: got %q", i, l))
			}
			continue
		}
		v, ok := parseValue(l)
		switch {
		case !ok || !ck.gs.valid(e.key, v):
			note(fmt.Sprintf("snapshot of group %d: got %q", e.key, l))
		case i == 0:
			first = v
		case v != first:
			note(fmt.Sprintf("torn snapshot of group %d: %d != %d", e.key, v, first))
		}
	}
	return first, bad, nil
}
