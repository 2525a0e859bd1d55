package sim

import (
	"math"
	"strings"
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
// a view into the one slab. The published rows are the prebuilt view for
// the cursor's position, and every prebuilt view row is such a view too.
func TestWindowMatchesShiftOracle(t *testing.T) {
	const rows = 3
	for _, l := range []int{1, 2, 3, 12} {
		w := newWindows(rows, l)
		if len(w.views) != 2*l {
			t.Fatalf("L=%d: %d views, want %d", l, len(w.views), 2*l)
		}
		for e, view := range w.views {
			for r, row := range view {
				if len(row) != min(e+1, l) || cap(row) != len(row) || !inSlab(w.slab[r*2*l:(r+1)*2*l], row) {
					t.Fatalf("L=%d view %d row %d: len %d cap %d, or outside its slab stripe", l, e, r, len(row), cap(row))
				}
			}
		}
		oracle := make([][]float64, rows)
		vals := make([]float64, rows)
		for push := 0; push < 5*l+3; push++ {
			for r := range vals {
				vals[r] = float64(100*r + push)
				oracle[r] = pushWindow(oracle[r], vals[r], l)
			}
			w.push(vals)
			if &w.rows[0] != &w.views[w.end-1][0] {
				t.Fatalf("L=%d push %d: rows is not the view for end %d", l, push, w.end)
			}
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

// TestSnapshotHistoryMatchesShiftOracle checks the windows where policies
// read them: across several full cycles of the 2·L cursor positions, every
// Snapshot.HostHistory and VMHistory row equals the shifting oracle fed
// with the utilizations the policy saw.
func TestSnapshotHistoryMatchesShiftOracle(t *testing.T) {
	const l, steps = 3, 4*2*3 + 1
	traces := make([]workload.Trace, 2)
	for j := range traces {
		traces[j] = make(workload.Trace, 7+j)
		for k := range traces[j] {
			traces[j][k] = float64(3*k+j) / 40
		}
	}
	cfg := testConfig(t, traces)
	cfg.HistoryLen, cfg.Steps = l, steps
	hostOracle := make([][]float64, len(cfg.Hosts))
	vmOracle := make([][]float64, len(cfg.VMs))
	check := func(s *Snapshot, got, oracle [][]float64, now []float64, what string) {
		for i := range oracle {
			oracle[i] = pushWindow(oracle[i], now[i], l)
			if len(got[i]) != len(oracle[i]) {
				t.Fatalf("step %d %s %d: %v, oracle %v", s.Step, what, i, got[i], oracle[i])
			}
			for k := range oracle[i] {
				if got[i][k] != oracle[i][k] {
					t.Fatalf("step %d %s %d: %v, oracle %v", s.Step, what, i, got[i], oracle[i])
				}
			}
		}
	}
	decided := 0
	p := &probePolicy{onDecide: func(s *Snapshot) {
		check(s, s.HostHistory, hostOracle, s.HostUtil, "host")
		check(s, s.VMHistory, vmOracle, s.VMUtil, "vm")
		decided++
	}}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(p); err != nil {
		t.Fatal(err)
	}
	if decided != steps {
		t.Fatalf("checked %d steps, want %d", decided, steps)
	}
}

// TestStagedReadMatchesTraceAt runs traces of lengths around the stage's
// eight-step block well past every wrap and requires each step's VMUtil to
// be Trace.At's sample bit for bit; in the lifecycle world a dead slot
// reads 0 and a slot that arrives mid-block reads its trace at once.
func TestStagedReadMatchesTraceAt(t *testing.T) {
	lens := []int{0, 1, 3, 7, 8, 9, 16}
	const steps = 16 + 5*stageSteps + 3
	traces := make([]workload.Trace, len(lens))
	for j, n := range lens {
		traces[j] = make(workload.Trace, n)
		for k := range traces[j] {
			traces[j][k] = float64(20*j+k+1) / 197
		}
	}
	base := testConfig(t, traces)
	base.VMs = make([]VMSpec, len(lens))
	for j := range base.VMs {
		base.VMs[j] = VMSpec{MIPS: 200, RAMMB: 512, BandwidthMbps: 100}
	}
	base.Steps = steps
	life := base
	life.InitialAlive = []bool{true, false, true, true, false, true, true}
	life.Lifecycle = []LifecycleEvent{
		{Step: 3, VM: 1, Kind: VMArrive, Host: -1},
		{Step: 11, VM: 5, Kind: VMDepart},
		{Step: 13, VM: 4, Kind: VMArrive, Host: -1},
		{Step: 30, VM: 5, Kind: VMArrive, Host: -1},
		{Step: 37, VM: 2, Kind: VMDepart},
	}
	for name, cfg := range map[string]Config{"static": base, "lifecycle": life} {
		norm, err := cfg.normalized()
		if err != nil {
			t.Fatal(err)
		}
		st, err := newRunState(norm)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < steps; step++ {
			if _, _, err := st.step(step, nopPolicy{}); err != nil {
				t.Fatalf("%s step %d: %v", name, step, err)
			}
			for j, tr := range traces {
				want := tr.At(step)
				if st.vmAlive != nil && !st.vmAlive[j] {
					want = 0
				}
				if math.Float64bits(st.vmUtil[j]) != math.Float64bits(want) {
					t.Fatalf("%s step %d VM %d (len %d): util %v, want %v", name, step, j, len(tr), st.vmUtil[j], want)
				}
			}
		}
		if name == "lifecycle" && (st.vmAlive[2] || !st.vmAlive[4] || !st.vmAlive[5]) {
			t.Fatalf("lifecycle schedule did not play out: alive %v", st.vmAlive)
		}
	}
}

// TestConfigRejectsSamplesOutsideTraceDomain: a trace sample must lie in
// [0,1]. A NaN used to pass New and crash Run inside the power model's
// table lookup; now New names the VM and the step.
func TestConfigRejectsSamplesOutsideTraceDomain(t *testing.T) {
	hosts, err := PlanetLabHosts(20)
	if err != nil {
		t.Fatal(err)
	}
	vms, err := PlanetLabVMs(30, 1)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.DefaultPlanetLabConfig(1)
	gen.Steps = 48
	traces, err := workload.GeneratePlanetLab(gen, len(vms))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Hosts: hosts, VMs: vms, Traces: traces, Seed: 1}
	good := traces[3][5]
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.01, 1.0001} {
		traces[3][5] = bad
		s, err := New(cfg)
		if err == nil {
			_, err = s.Run(nopPolicy{})
			t.Fatalf("New accepted sample %g (Run: %v)", bad, err)
		}
		if msg := err.Error(); !strings.Contains(msg, "VM 3 ") || !strings.Contains(msg, "step 5 ") {
			t.Fatalf("sample %g: error %q does not name VM 3 and step 5", bad, msg)
		}
	}
	traces[3][5] = good
	if _, err := New(cfg); err != nil {
		t.Fatal(err)
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
