package core

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"megh/internal/sim"
	"megh/internal/sparse"
	"megh/internal/trace"
)

// lazyTwin builds the learner New(cfg) builds, on a table padded past the
// eager budget with indices nothing ever addresses: its pages are therefore
// allocated on first write, where New's — the world is under the budget —
// were carved up front. The arithmetic cannot tell: B's implicit diagonal
// and drop tolerance are set from the real d, exactly as New sets them.
func lazyTwin(t *testing.T, cfg Config) *Megh {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	d := cfg.NumVMs * cfg.NumHosts
	const padded = 1<<20 + 1 // past the eager budget whatever d is
	b := sparse.NewMatrix(d+padded, 1/float64(d))
	b.SetDropTolerance(1e-9 / float64(d))
	return assemble(cfg, b)
}

// The two sides of the eager budget are one program: the same seeded
// observe/decide stream through a learner whose pages were carved up front
// and through its page-on-touch twin yields the same migrations, byte-equal
// decision traces, equal NNZ, bit-equal z and θ cells and the same B, z and
// θ images — on a toy world and on the paper's 800 × 1 052 one.
func TestEagerAndLazyLearnersAreOneProgram(t *testing.T) {
	for _, w := range []struct {
		name                string
		nVMs, nHosts, steps int
	}{
		{"exact", 18, 20, 120},
		{"paper800", 1052, 800, 40},
	} {
		t.Run(w.name, func(t *testing.T) {
			items := batchItems(snapshotStream(t, w.nVMs, w.nHosts, w.steps))
			cfg := DefaultConfig(w.nVMs, w.nHosts, 4242)
			eager, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			lazy := lazyTwin(t, cfg)
			lazyBefore := lazy.QTableResidentBytes()

			run := func(m *Megh) ([][]sim.Migration, []byte) {
				var buf bytes.Buffer
				tr, err := trace.New(trace.Options{W: &buf})
				if err != nil {
					t.Fatal(err)
				}
				m.Trace(tr)
				out := make([][]sim.Migration, len(items))
				for i, it := range items {
					if it.Feedback != nil {
						m.Observe(it.Feedback)
					}
					out[i] = m.DecideAppend(nil, it.Snap)
				}
				return out, buf.Bytes()
			}
			eagerOut, eagerTrace := run(eager)
			lazyOut, lazyTrace := run(lazy)

			if !reflect.DeepEqual(eagerOut, lazyOut) {
				t.Fatal("the page-on-touch learner decided differently")
			}
			if !bytes.Equal(eagerTrace, lazyTrace) {
				t.Fatal("decision traces differ byte-for-byte")
			}
			if eager.QTableNNZ() == 0 || eager.QTableNNZ() != lazy.QTableNNZ() {
				t.Fatalf("NNZ %d (eager) vs %d (lazy)", eager.QTableNNZ(), lazy.QTableNNZ())
			}
			for i := 0; i < eager.d; i++ {
				if math.Float64bits(eager.b.Theta(i)) != math.Float64bits(lazy.b.Theta(i)) ||
					math.Float64bits(eager.b.Z(i)) != math.Float64bits(lazy.b.Z(i)) {
					t.Fatalf("cells of %d: z %v θ %v (eager) vs z %v θ %v (lazy)", i,
						eager.b.Z(i), eager.b.Theta(i), lazy.b.Z(i), lazy.b.Theta(i))
				}
			}
			// The images differ in the padded dimension only.
			ei, li := readMirror(t, imageOf(t, eager)), readMirror(t, imageOf(t, lazy))
			if len(ei.Z.PackedValue) == 0 || len(ei.Theta.PackedValue) == 0 {
				t.Fatal("the run left z or θ empty")
			}
			li.B.Dim, li.Z.Dim, li.Theta.Dim = ei.B.Dim, ei.Z.Dim, ei.Theta.Dim
			if !reflect.DeepEqual(ei.B, li.B) || !reflect.DeepEqual(ei.Z, li.Z) || !reflect.DeepEqual(ei.Theta, li.Theta) {
				t.Fatal("B, θ or z serialise differently on the two sides")
			}
			// The twin really did allocate as it went: pages and records, not
			// just the three words per entry both sides pay.
			if grew := lazy.QTableResidentBytes() - lazyBefore; grew <= 24*lazy.QTableNNZ() {
				t.Fatalf("the padded learner grew by %d bytes for %d entries: nothing was allocated on touch",
					grew, lazy.QTableNNZ())
			}
		})
	}
}
