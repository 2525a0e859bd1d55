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

// lazyTwin builds the learner New(cfg) builds, on tables padded past the
// eager budget with indices nothing ever addresses: its B and θ pages are
// therefore allocated on first write, where New's — the world is tiny —
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
	return assemble(cfg, b, sparse.NewRowVector(d, cfg.NumHosts), sparse.NewPagedVector(d+padded))
}

// The two sides of the eager budget are one program: the same seeded
// observe/decide stream through a learner whose tables were carved up front
// and through its page-on-touch twin yields the same migrations, byte-equal
// decision traces, equal NNZ, bit-equal θ and the same B, z and θ images.
func TestEagerAndLazyLearnersAreOneProgram(t *testing.T) {
	const nVMs, nHosts, steps = 18, 20, 120
	items := batchItems(snapshotStream(t, nVMs, nHosts, steps))
	t.Run("exact", func(t *testing.T) {
		cfg := DefaultConfig(nVMs, nHosts, 4242)
		eager, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		lazy := lazyTwin(t, cfg)
		// z is not paged: keep it out of the page-growth check below.
		pagedBytes := func(m *Megh) int { return m.QTableResidentBytes() - m.z.ResidentBytes() }
		lazyBefore := pagedBytes(lazy)

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
			if math.Float64bits(eager.theta.At(i)) != math.Float64bits(lazy.theta.At(i)) {
				t.Fatalf("θ[%d] = %v (eager) vs %v (lazy)", i, eager.theta.At(i), lazy.theta.At(i))
			}
		}
		// The images differ in the padded dimension only.
		eb, lb := eager.b.State(), lazy.b.State()
		lb.Dim = eb.Dim
		et, lt := eager.theta.Vector().State(), lazy.theta.Vector().State()
		lt.Dim = et.Dim
		if !reflect.DeepEqual(eb, lb) || !reflect.DeepEqual(et, lt) || !reflect.DeepEqual(eager.z.State(), lazy.z.State()) {
			t.Fatal("B, θ or z serialise differently on the two sides")
		}
		// The twin really did allocate as it went: pages and rows, not
		// just the three words per entry both sides pay.
		if grew := pagedBytes(lazy) - lazyBefore; grew <= 24*lazy.QTableNNZ() {
			t.Fatalf("the padded learner grew by %d bytes for %d entries: nothing was allocated on touch",
				grew, lazy.QTableNNZ())
		}
	})
}
