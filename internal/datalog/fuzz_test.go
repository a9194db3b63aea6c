package datalog

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
)

// FuzzParse hardens the parser: arbitrary input must either parse or return
// an error — never panic — and whatever parses must re-parse from its own
// String rendering to an identical program (printer/parser round trip).
func FuzzParse(f *testing.F) {
	seeds := []string{
		`p(a).`,
		`path(X,Y) :- edge(X,Y).`,
		`path(X,Z) :- path(X,Y), edge(Y,Z).`,
		`rel(X,Y) :- rel(X,Z), own(Z,Y,W), msum(W,[Z]) > 0.5.`,
		`total(M,S) :- val(M,I,W), S = msum(W,[I]).`,
		`s(X) :- p(X), not q(X).`,
		`C1 = C2 :- cat(M,A,C1), cat(M,A,C2).`,
		`f("str \" esc", -1.5e3).`,
		`t(X) :- p(X), X != "a", X >= "b", X in L, lst(L).`,
		`h(X) :- g(A,B), X = A + B * (A - B) / 2.`,
		`p(X,Z) :- q(X). % existential`,
		`% just a comment`,
		`f(⊥).`,
		"p(a) :- q(",
		strings.Repeat("p(a). ", 50),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		rendered := p.String()
		p2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("re-parse of rendered program failed: %v\nsource: %q\nrendered: %q",
				err, src, rendered)
		}
		if p2.String() != rendered {
			t.Fatalf("printer not a fixpoint:\nfirst:  %q\nsecond: %q", rendered, p2.String())
		}
	})
}

// FuzzRunSmall evaluates fuzzer-generated programs over a tiny fixed
// database under tight caps: evaluation must terminate with a result or an
// error, never hang or panic.
func FuzzRunSmall(f *testing.F) {
	seeds := []string{
		`p(X) :- e(X).`,
		`p(Y) :- p(X), e2(X,Y).`,
		`n(Y) :- n(X), succ(X,Y).` + ` succ(X,Y) :- n(X).` + ` n(zero).`,
		`q(X) :- e(X), not p(X). p(X) :- e(X).`,
		`t(G,S) :- e2(G,I), S = mcount([I]).`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		edb := NewDatabase()
		edb.Add("e", Str("a"))
		edb.Add("e", Str("b"))
		edb.Add("e2", Str("a"), Str("b"))
		edb.Add("e2", Str("b"), Str("a"))
		res, err := Run(p, edb, &Options{MaxFacts: 2000, MaxRounds: 200, MaxWork: 2_000_000})
		if err != nil {
			return
		}
		// The input facts must survive evaluation.
		if !res.Has("e", Str("a")) {
			t.Fatal("extensional fact lost")
		}
	})
}

// FuzzEngineMatchesReference turns fuzz bytes into the seed of the random%d
// cases' generator (randomProgram) and holds the engine to the reference
// chase on the program and graph it draws, at workers 1 and 4.
func FuzzEngineMatchesReference(f *testing.F) {
	for _, s := range []string{"\x00", "\x05", "\x07", "reference"} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var b [8]byte
		copy(b[:], data)
		seed := int64(binary.LittleEndian.Uint64(b[:]))
		p, edb := randomProgram(seed)
		equivRuns(t, fmt.Sprintf("random%d", seed), p, edb, nil, false)
	})
}
