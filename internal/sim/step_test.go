package sim

import (
	"testing"

	"megh/internal/workload"
)

// pushWindow is the shifting window the sliding one replaced: append x to a
// trailing window of at most capLen samples, evicting the oldest once full.
func pushWindow(w []float64, x float64, capLen int) []float64 {
	if len(w) == capLen {
		copy(w, w[1:])
		w = w[:capLen-1]
	}
	return append(w, x)
}

// TestWindowMatchesShiftOracle pushes every row of a windows set well past
// several slab compactions and compares each row, after every push, with
// the shifting oracle: same length, same values, cap == len, and every row
// a view into the one slab.
func TestWindowMatchesShiftOracle(t *testing.T) {
	const rows = 3
	for _, l := range []int{1, 2, 3, 12} {
		w := newWindows(rows, l)
		oracle := make([][]float64, rows)
		vals := make([]float64, rows)
		for push := 0; push < 5*l+3; push++ {
			for r := range vals {
				vals[r] = float64(100*r + push)
				oracle[r] = pushWindow(oracle[r], vals[r], l)
			}
			w.push(vals)
			for r, row := range w.rows {
				want := oracle[r]
				if len(row) != len(want) || cap(row) != len(row) {
					t.Fatalf("L=%d push %d row %d: len %d cap %d, oracle len %d",
						l, push, r, len(row), cap(row), len(want))
				}
				for k := range want {
					if row[k] != want[k] {
						t.Fatalf("L=%d push %d row %d: %v, oracle %v", l, push, r, row, want)
					}
				}
				if !inSlab(w.slab[r*2*l:(r+1)*2*l], row) {
					t.Fatalf("L=%d push %d row %d does not alias its slab stripe", l, push, r)
				}
			}
		}
		// Appending to a published window must not write into the slab.
		before := append([]float64(nil), w.slab...)
		_ = append(w.rows[0], -1)
		for k := range before {
			if w.slab[k] != before[k] {
				t.Fatalf("L=%d: append to a window wrote slab slot %d", l, k)
			}
		}
	}
}

// inSlab reports whether row's first element is one of stripe's slots.
func inSlab(stripe, row []float64) bool {
	for k := range stripe {
		if &stripe[k] == &row[0] {
			return true
		}
	}
	return false
}

// swapPolicy moves VM 0 to the other host every step and asks for the same
// VM again, which the simulator refuses as a duplicate.
type swapPolicy struct{ out []Migration }

func (p *swapPolicy) Name() string { return "swap" }

func (p *swapPolicy) Decide(s *Snapshot) []Migration {
	dest := 1 - s.VMHost[0]
	p.out = append(p.out[:0], Migration{VM: 0, Dest: dest}, Migration{VM: 0, Dest: 1 - dest})
	return p.out
}

func (p *swapPolicy) Observe(*Feedback) {}

// TestStepAllocatesNothing pins the step's zero-allocation contract: with a
// migration executed and a duplicate rejected every step, a warmed-up step
// allocates nothing — feedback, duplicate check and windows are scratch.
func TestStepAllocatesNothing(t *testing.T) {
	cfg := testConfig(t, []workload.Trace{{0.2, 0.3, 0.1}, {0.3, 0.1, 0.2}})
	norm, err := cfg.normalized()
	if err != nil {
		t.Fatal(err)
	}
	st, err := newRunState(norm)
	if err != nil {
		t.Fatal(err)
	}
	p := &swapPolicy{}
	step := 0
	run := func() {
		m, fb, err := st.step(step, p)
		if err != nil || m.Migrations != 1 || m.Rejected != 1 || len(fb.Executed) != 1 {
			t.Fatalf("step %d: %+v, %v", step, m, err)
		}
		step++
	}
	for i := 0; i < 4; i++ {
		run()
	}
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("step allocates %.1f times", allocs)
	}
}
