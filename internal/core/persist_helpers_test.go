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
