package experiments

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"megh/internal/consolidation"
	"megh/internal/cost"
	"megh/internal/scenario"
	"megh/internal/sim"
	"megh/internal/workload"
)

var updateFrozen = flag.Bool("update-frozen", false, "rewrite testdata/frozen_outputs.golden from this tree")

const frozenGolden = "testdata/frozen_outputs.golden"

// frozenRecorder wraps a policy and hashes what the simulator tells it after
// every step. The simulator owns Feedback and its slices only for the
// duration of Observe, so the lists are folded into the hash right there
// (the copy a retaining receiver would have to make).
type frozenRecorder struct {
	inner sim.Policy
	h     hash.Hash
}

func (r *frozenRecorder) Name() string                           { return r.inner.Name() }
func (r *frozenRecorder) Decide(s *sim.Snapshot) []sim.Migration { return r.inner.Decide(s) }

func (r *frozenRecorder) Observe(fb *sim.Feedback) {
	for _, list := range [][]sim.Migration{fb.Executed, fb.Rejected} {
		writeInts(r.h, len(list))
		for _, m := range list {
			writeInts(r.h, m.VM, m.Dest)
		}
	}
	if fr, ok := r.inner.(sim.FeedbackReceiver); ok {
		fr.Observe(fb)
	}
}

func writeInts(h hash.Hash, vs ...int) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
		h.Write(b[:])
	}
}

func writeFloats(h hash.Hash, vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}

// frozenWorlds are the configurations the benchmark's digests cannot see:
// history windows read by a selection policy, lifecycle churn, injected
// outages, cumulative SLA accounting, and traces of mixed lengths. Each
// spans ≥ 5 history windows.
func frozenWorlds(t *testing.T) map[string]sim.Config {
	t.Helper()
	const steps = 96
	pl := Setup{Dataset: PlanetLab, Hosts: 60, VMs: 40, Steps: steps, Seed: 3}
	build := func(mutate func(*sim.Config)) sim.Config {
		cfg, err := pl.Build()
		if err != nil {
			t.Fatal(err)
		}
		if mutate != nil {
			mutate(&cfg)
		}
		return cfg
	}
	churn, err := scenario.Build("churn", 24, 40, steps, 3)
	if err != nil {
		t.Fatal(err)
	}
	if checkerFactory != nil {
		churn.Checker = checkerFactory()
	}
	// mixed replays week-long traces cut to unsorted, paired lengths: a short
	// trace wraps many times inside the horizon, and neighbouring VMs change
	// length, so every run of equal lengths is short.
	week := pl
	week.Steps = workload.SevenDays
	mixed, err := week.Build()
	if err != nil {
		t.Fatal(err)
	}
	mixed.Steps = steps
	lens := []int{13, 0, workload.SevenDays, 1, 9, 5, 16, 8, 7}
	for j := range mixed.Traces {
		mixed.Traces[j] = mixed.Traces[j][:lens[j/2%len(lens)]]
	}
	return map[string]sim.Config{
		"mixed":     mixed,
		"planetlab": build(nil),
		"churn":     churn,
		"failures": build(func(c *sim.Config) {
			c.Failures = []sim.Failure{{Host: 0, From: 10, Until: 30}, {Host: 2, From: 40, Until: 55}, {Host: 5, From: 20, Until: 70}}
		}),
		"cumulative": build(func(c *sim.Config) {
			c.Cost = cost.Default()
			c.Cost.Accounting = cost.SLACumulative
		}),
	}
}

func frozenPolicy(t *testing.T, name string, vms, hosts int, seed int64) sim.Policy {
	t.Helper()
	if name == "THR-MC" {
		d, err := consolidation.NewTHR(0.7)
		if err != nil {
			t.Fatal(err)
		}
		p, err := consolidation.NewMMT(d, consolidation.Config{Selection: consolidation.SelectMaxCorrelation})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p, err := NewPolicy(name, vms, hosts, seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// frozenDigest runs one policy on one world and hashes every simulated
// output: each step's metrics except the machine-dependent DecideSeconds
// (floats as bits), the executed and rejected lists the policy was told
// about, and the final per-VM downtime fractions.
func frozenDigest(t *testing.T, cfg sim.Config, policy string) string {
	t.Helper()
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := &frozenRecorder{
		inner: frozenPolicy(t, policy, len(cfg.VMs), len(cfg.Hosts), sim.Seeds{Base: cfg.Seed}.Policy()),
		h:     sha256.New(),
	}
	res, err := s.Run(rec)
	if err != nil {
		t.Fatalf("%s: %v", policy, err)
	}
	steps := sha256.New()
	for _, m := range res.Steps {
		writeInts(steps, m.Step, m.Migrations, m.Rejected, m.ActiveHosts, m.OverloadedHosts,
			m.FailedHosts, m.LiveVMs, m.Arrivals, m.Departures, m.DeferredArrivals)
		writeFloats(steps, m.EnergyCost, m.SLACost, m.ResourceCost)
	}
	writeFloats(steps, res.VMDowntimeFrac...)
	steps.Write(rec.h.Sum(nil))
	return hex.EncodeToString(steps.Sum(nil))
}

// TestSimulatorOutputsAreFrozen pins every simulated number of five
// policies on five worlds to a golden digest. The benchmark's workloads run
// only Megh on static PlanetLab worlds under per-interval SLA accounting, so
// a history-window, lifecycle, outage or cumulative-SLA change in the
// simulator would pass them unseen; it cannot pass this. Regenerate only
// for a change that means to move simulated numbers:
//
//	go test ./internal/experiments -run TestSimulatorOutputsAreFrozen -update-frozen
func TestSimulatorOutputsAreFrozen(t *testing.T) {
	policies := []string{"THR-MMT", "IQR-MMT", "LR-MMT", "Megh", "THR-MC"}
	got := map[string]string{}
	for world, cfg := range frozenWorlds(t) {
		for _, p := range policies {
			got[world+"/"+p] = frozenDigest(t, cfg, p)
		}
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if *updateFrozen {
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "%s %s\n", k, got[k])
		}
		if err := os.MkdirAll(filepath.Dir(frozenGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(frozenGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(frozenGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), " "); ok {
			want[k] = v
		}
	}
	if len(want) != len(keys) {
		t.Errorf("golden holds %d digests, test computes %d", len(want), len(keys))
	}
	for _, k := range keys {
		if want[k] != got[k] {
			t.Errorf("%s: digest %s, golden %s", k, got[k], want[k])
		}
	}
}
