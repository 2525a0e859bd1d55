package core

import (
	"bytes"
	"encoding/gob"
	"io"
	"testing"
)

// newTestDecoder decodes a persisted state blob for white-box tests.
func newTestDecoder(t testing.TB, data []byte, st *persistedState) io.Reader {
	t.Helper()
	r := bytes.NewReader(data)
	if err := gob.NewDecoder(r).Decode(st); err != nil {
		t.Fatalf("decoding test state: %v", err)
	}
	return r
}

// encodeTestState re-encodes a (possibly mutated) state blob.
func encodeTestState(t testing.TB, w io.Writer, st persistedState) {
	t.Helper()
	if err := gob.NewEncoder(w).Encode(st); err != nil {
		t.Fatalf("encoding test state: %v", err)
	}
}

// ageOneDay applies to a fresh learner what a simulated day leaves behind at
// 10 000 hosts: a chain of 398 transitions between seeded random actions
// (bench/README.md finding 2: 796 entries in 398 rows), each with a cost.
func ageOneDay(m *Megh) {
	x := uint64(m.cfg.NumVMs)
	next := func(n int) int {
		x = x*6364136223846793005 + 1442695040888963407
		return int(x>>33) % n
	}
	prev := next(m.d)
	for i := 0; i < 398; i++ {
		a := next(m.d)
		m.update(prev, a, 0.25+float64(i%5))
		prev = a
	}
}
