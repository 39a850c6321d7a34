package bench

import (
	"bytes"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// BenchmarkServer is the end-to-end wire benchmark: an in-process
// server on loopback TCP, N pipelined connections replaying pre-built
// GET/SET windows, one benchmark op per request. The load side is
// allocation-free in the steady state, so with -benchmem the reported
// allocs/op is the server+kv request path's own footprint — the figure
// the zero-allocation rewrite is gated on (budget: ≤ 1 alloc/req on
// the byte path; the CI server-bench-smoke job asserts it).
func BenchmarkServer(b *testing.B) {
	for _, bc := range []struct {
		name  string
		conns int
	}{
		{"byte-c1", 1},
		{"byte-c8", 8},
	} {
		b.Run(bc.name, func(b *testing.B) { benchServer(b, "nztm", bc.conns) })
	}
}

func benchServer(b *testing.B, engine string, conns int) {
	srv, keys, err := startLoadServer(engine)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	const pipeline = 32
	lcs := make([]*loadConn, conns)
	for i := range lcs {
		// GET/SET only (no CAS): the acceptance budget is defined on the
		// pipelined unconditional path, where batch folding amortizes
		// the engine transaction across the window.
		lc, err := dialLoadConn(srv.Addr().String(), keys, int64(i), pipeline, 25, 0)
		if err != nil {
			b.Fatal(err)
		}
		defer lc.close()
		lcs[i] = lc
		if err := lc.do(2 * pipeline); err != nil { // warm the whole path
			b.Fatal(err)
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	errs := make([]error, conns)
	for i, lc := range lcs {
		reqs := b.N / conns
		if i < b.N%conns {
			reqs++
		}
		if reqs == 0 {
			continue
		}
		i, lc := i, lc
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = lc.do(reqs)
		}()
	}
	wg.Wait()
	b.StopTimer()
	for _, err := range errs {
		if err != nil {
			b.Fatal(err)
		}
	}
}

// TestRunServerLoad is the smoke for the wire-load harness: a short
// measured run must ack every request with no error responses.
func TestRunServerLoad(t *testing.T) {
	r, err := RunServerLoad("nztm", 2, 16, 40)
	if err != nil {
		t.Fatal(err)
	}
	if r.Reqs != 2*16*40 {
		t.Fatalf("reqs = %d, want %d", r.Reqs, 2*16*40)
	}
	if r.Path != "byte" {
		t.Fatalf("path mislabeled: %q", r.Path)
	}
	if r.ReqsPerSec() <= 0 {
		t.Fatal("zero throughput")
	}
}

// TestServerAllocBudget locks the tentpole property in-process: a
// steady-state pipelined GET/SET load on the byte path stays within
// 1 alloc per request across server and kv layers.
func TestServerAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	r, err := RunServerLoad("nztm", 2, 32, 100)
	if err != nil {
		t.Fatal(err)
	}
	if r.AllocsPerReq > 1 {
		t.Fatalf("byte path allocates %.2f allocs/req, budget is 1", r.AllocsPerReq)
	}
}

// TestLoadConnSeamErrDetection pins the error detector against "ERR"
// tokens split across TCP read boundaries, including one-byte reads.
func TestLoadConnSeamErrDetection(t *testing.T) {
	lc := &loadConn{}
	if lc.sawErr([]byte("VALUE 1\nOK\n")) {
		t.Fatal("clean chunk flagged")
	}
	if lc.sawErr([]byte("VALUE 2\nE")) {
		t.Fatal("prefix alone flagged")
	}
	if !lc.sawErr([]byte("RR bad key\n")) {
		t.Fatal("ERR split across two reads undetected")
	}
	lc = &loadConn{}
	for _, ch := range []string{"OK\nE", "R"} {
		if lc.sawErr([]byte(ch)) {
			t.Fatalf("flagged before token complete (%q)", ch)
		}
	}
	if !lc.sawErr([]byte("R oops\n")) {
		t.Fatal("ERR split across three reads undetected")
	}
	lc = &loadConn{}
	if !lc.sawErr([]byte("ERR direct\n")) {
		t.Fatal("direct ERR undetected")
	}
}

// TestWindowBuilder pins the window invariants the load workers rely
// on: offs marks the end of each request line and the mix respects the
// CAS share.
func TestWindowBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	keys := []string{"a", "b", "c"}
	win, offs := buildWindow(50, keys, rng, 20, 5)
	if len(offs) != 50 || offs[len(offs)-1] != len(win) {
		t.Fatalf("offsets truncated: %d offs, last %d, len %d", len(offs), offs[len(offs)-1], len(win))
	}
	prev := 0
	for i, o := range offs {
		line := string(win[prev:o])
		if !strings.HasSuffix(line, "\n") || strings.Count(line, "\n") != 1 {
			t.Fatalf("request %d is not one line: %q", i, line)
		}
		if !strings.HasPrefix(line, "GET ") && !strings.HasPrefix(line, "SET ") && !strings.HasPrefix(line, "CAS ") {
			t.Fatalf("request %d has unexpected verb: %q", i, line)
		}
		prev = o
	}
	if bytes.Contains(win, []byte("\n\n")) {
		t.Fatalf("window contains blank lines")
	}
}
