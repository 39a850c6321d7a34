package server

// Equivalence of the byte-level request parser against the retired
// string parser (parseOpLegacy, kept below verbatim as the living
// reference implementation the equivalence test and FuzzParseOp
// compare against). The byte tokenizer/parser must accept and reject
// exactly the same request language — same tokens, same ops, same
// arity and ParseUint edge behavior, and (for ASCII requests) the same
// error text. One documented divergence exists: the legacy parser
// case-folded verbs with the unicode-aware strings.ToUpper, which
// accepted oddities like "ſet" (LATIN SMALL LETTER LONG S upper-cases
// to "SET"); verbs are ASCII by contract in the byte parser, so
// comparisons skip non-ASCII verb tokens.

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/kv"
	"repro/internal/nztm"
)

// newParserSession builds a throwaway store+session for handle
// resolution during parsing.
func newParserSession() *kv.Session {
	return kv.New(nztm.New(), 4, 4).NewSession()
}

func asciiOnly(s []byte) bool {
	for _, c := range s {
		if c >= 0x80 {
			return false
		}
	}
	return true
}

// compareParsers runs one raw request line through both parsers and
// fails on any observable divergence.
func compareParsers(t *testing.T, se *kv.Session, line string) {
	t.Helper()

	// Tokenizer equivalence: splitFields must match strings.Fields.
	toks := splitFields([]byte(line), nil)
	fields := strings.Fields(line)
	if len(toks) != len(fields) {
		t.Fatalf("line %q: %d byte tokens vs %d string fields", line, len(toks), len(fields))
	}
	for i := range toks {
		if string(toks[i]) != fields[i] {
			t.Fatalf("line %q: token %d = %q, want %q", line, i, toks[i], fields[i])
		}
	}
	if len(toks) == 0 {
		return
	}
	if !asciiOnly(toks[0]) {
		return // non-ASCII verbs are out of the protocol (see file comment)
	}

	legacyVerb := strings.ToUpper(fields[0])
	legacyOp, legacyErr := parseOpLegacy(legacyVerb, fields[1:])
	v := lookupVerb(toks[0])
	newOp, newErr := parseOp(se, v, toks[0], toks[1:])

	// The handler routes only op verbs into parseOp; for everything
	// else both parsers answer "unknown command". Verb classification
	// itself must agree.
	isOp := map[string]bool{"GET": true, "SET": true, "DEL": true, "CAS": true}[legacyVerb]
	if isOp != (v == vGet || v == vSet || v == vDel || v == vCas) {
		t.Fatalf("line %q: verb classification differs (legacy %q, byte %v)", line, legacyVerb, v)
	}

	if (legacyErr != nil) != (newErr != nil) {
		t.Fatalf("line %q: legacy err %v, byte err %v", line, legacyErr, newErr)
	}
	if legacyErr != nil {
		if legacyErr.Error() != newErr.Error() {
			t.Fatalf("line %q: error text differs:\n legacy: %s\n byte:   %s", line, legacyErr, newErr)
		}
		return
	}
	if newOp.Kind != legacyOp.Kind || newOp.Val != legacyOp.Val || newOp.Old != legacyOp.Old {
		t.Fatalf("line %q: ops differ: legacy %+v, byte %+v", line, legacyOp, newOp)
	}
	// The byte parser resolves the key to a handle; map the legacy key
	// through the same session and compare.
	if want := se.Handle(legacyOp.Key); newOp.Handle != want {
		t.Fatalf("line %q: handle %d for key %q, want %d", line, newOp.Handle, legacyOp.Key, want)
	}
}

var parserCases = []string{
	"GET k",
	"get k",
	"GeT k",
	"SET key0001 42",
	"set k 0",
	"DEL k",
	"CAS k 1 2",
	"cas k 18446744073709551615 0",
	// Arity errors.
	"GET",
	"GET a b",
	"SET k",
	"SET a 1 2",
	"DEL",
	"CAS k 1",
	"CAS k 1 2 3",
	// Number edge cases: sign, empty-ish, overflow, junk.
	"SET k -1",
	"SET k +1",
	"SET k 1_0",
	"SET k 0x10",
	"SET k 18446744073709551615",
	"SET k 18446744073709551616", // 2^64: overflow
	"SET k 99999999999999999999999999",
	"SET k zzz",
	"SET k 12a",
	"CAS k 1 -2",
	// Whitespace shapes (strings.Fields semantics).
	"  GET   k  ",
	"\tSET\tk\t7\t",
	"GET k\r",
	"GET k",   // non-breaking space is a separator in both
	"SET k 1", // em space likewise
	"GET k x", // ...including inside what looks like one arg
	"",
	"   ",
	"\t\r",
	// Unknown / non-op verbs.
	"PING",
	"STATS now",
	"BOGUS x",
	"getx k",
	// Non-ASCII keys are legal keys.
	"GET ключ",
	"SET héllo 5",
	"GET \xff\xfe", // invalid UTF-8 bytes form a token in both
}

func TestParseOpEquivalence(t *testing.T) {
	se := newParserSession()
	for _, line := range parserCases {
		compareParsers(t, se, line)
	}
}

// FuzzParseOp drives the byte parser and the retired string parser
// with arbitrary request lines; any accept/reject, token, op or
// error-text divergence fails.
func FuzzParseOp(f *testing.F) {
	for _, line := range parserCases {
		f.Add(line)
	}
	se := newParserSession()
	f.Fuzz(func(t *testing.T, line string) {
		if strings.ContainsAny(line, "\n") {
			// The wire handler splits on newlines before parsing; a
			// parser-level comparison of multi-line input is meaningless.
			line = strings.ReplaceAll(line, "\n", " ")
		}
		compareParsers(t, se, line)
	})
}

// TestParseUint pins the manual integer parser against the strconv
// behavior the legacy parser relied on, at the edges that matter.
func TestParseUint(t *testing.T) {
	cases := []struct {
		in   string
		want uint64
		ok   bool
	}{
		{"0", 0, true},
		{"7", 7, true},
		{"018", 18, true}, // base 10, no octal surprise
		{"18446744073709551615", 1<<64 - 1, true},
		{"18446744073709551616", 0, false}, // 2^64 overflows
		{"28446744073709551615", 0, false},
		{"184467440737095516150", 0, false},
		{"", 0, false},
		{"-1", 0, false},
		{"+1", 0, false},
		{"1 ", 0, false},
		{"1_0", 0, false},
		{"0x10", 0, false},
		{"٤", 0, false}, // non-ASCII digit
	}
	for _, c := range cases {
		got, ok := parseUint([]byte(c.in))
		if got != c.want || ok != c.ok {
			t.Fatalf("parseUint(%q) = (%d, %v), want (%d, %v)", c.in, got, ok, c.want, c.ok)
		}
	}
}

// parseOpLegacy parses a single-key request into a kv.Op — the retired
// string parser, the reference the byte parser (parseOp) is proved
// equivalent to by TestParseOpEquivalence and FuzzParseOp.
func parseOpLegacy(verb string, args []string) (kv.Op, error) {
	key := func(i int) (string, error) {
		if i >= len(args) {
			return "", fmt.Errorf("%s: missing key", verb)
		}
		return args[i], nil
	}
	num := func(i int) (uint64, error) {
		if i >= len(args) {
			return 0, fmt.Errorf("%s: missing numeric argument", verb)
		}
		v, err := strconv.ParseUint(args[i], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: bad number %q", verb, args[i])
		}
		return v, nil
	}
	arity := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("%s: want %d argument(s), got %d", verb, n, len(args))
		}
		return nil
	}
	switch verb {
	case "GET":
		if err := arity(1); err != nil {
			return kv.Op{}, err
		}
		k, err := key(0)
		return kv.Op{Kind: kv.OpGet, Key: k}, err
	case "SET":
		if err := arity(2); err != nil {
			return kv.Op{}, err
		}
		k, err := key(0)
		if err != nil {
			return kv.Op{}, err
		}
		v, err := num(1)
		return kv.Op{Kind: kv.OpPut, Key: k, Val: v}, err
	case "DEL":
		if err := arity(1); err != nil {
			return kv.Op{}, err
		}
		k, err := key(0)
		return kv.Op{Kind: kv.OpDelete, Key: k}, err
	case "CAS":
		if err := arity(3); err != nil {
			return kv.Op{}, err
		}
		k, err := key(0)
		if err != nil {
			return kv.Op{}, err
		}
		old, err := num(1)
		if err != nil {
			return kv.Op{}, err
		}
		v, err := num(2)
		return kv.Op{Kind: kv.OpCAS, Key: k, Old: old, Val: v}, err
	}
	return kv.Op{}, fmt.Errorf("unknown command %q", verb)
}
