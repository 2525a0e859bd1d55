// Command metriclint enforces the repo's metric-naming conventions over
// every registry the reproduction actually builds, so a misnamed metric
// fails `make check` instead of shipping:
//
//   - every family name matches ^megh_[a-z][a-z0-9_]*$ (megh_ prefix,
//     lowercase snake case),
//   - counters end in _total,
//   - histograms end in a unit suffix (_seconds or _bytes),
//   - no family uses the reserved exposition suffixes _bucket, _sum or
//     _count (they collide with the histogram rendering), and
//     non-counters do not end in _total,
//   - one name never appears with two different types across registries.
//
// Rather than grepping source for name literals, the linter instantiates
// the real components — the HTTP service (with a live session, so the
// fleet-level megh_session_* renames are linted too), a core learner, a
// health tracker, and a short simulator run — and checks what they
// register: obs.Registry.Gather() for in-process registries, plus the
// `# TYPE` lines of the rendered /metrics exposition for the service.
// Output is one line per violation (exit 1), or a summary line (exit 0).
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strings"

	"megh/internal/core"
	"megh/internal/health"
	"megh/internal/obs"
	"megh/internal/power"
	"megh/internal/server"
	"megh/internal/sim"
	"megh/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "metriclint:", err)
		os.Exit(1)
	}
}

// familyRef is one observed (name, type) pair and where it came from.
type familyRef struct {
	name, typ, source string
}

func run() error {
	var fams []familyRef
	for _, gather := range []struct {
		source string
		fn     func() ([]obs.FamilySnapshot, error)
	}{
		{"server", gatherServer},
		{"cluster", gatherCluster},
		{"core", gatherCore},
		{"health", gatherHealth},
		{"sim", gatherSim},
	} {
		snaps, err := gather.fn()
		if err != nil {
			return fmt.Errorf("building %s registry: %w", gather.source, err)
		}
		for _, s := range snaps {
			fams = append(fams, familyRef{name: s.Name, typ: s.Type, source: gather.source})
		}
	}
	exposition, err := gatherExposition()
	if err != nil {
		return fmt.Errorf("rendering /metrics: %w", err)
	}
	fams = append(fams, exposition...)

	violations := lint(fams)
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Println(v)
		}
		return fmt.Errorf("%d violation(s)", len(violations))
	}
	names := map[string]bool{}
	for _, f := range fams {
		names[f.name] = true
	}
	fmt.Printf("metriclint: %d families clean across %d registrations\n", len(names), len(fams))
	return nil
}

var nameRe = regexp.MustCompile(`^megh_[a-z][a-z0-9_]*$`)

// lint applies every rule and returns the sorted, deduplicated violation
// lines.
func lint(fams []familyRef) []string {
	seen := map[string]bool{}
	var out []string
	report := func(format string, args ...any) {
		line := fmt.Sprintf(format, args...)
		if !seen[line] {
			seen[line] = true
			out = append(out, line)
		}
	}
	types := map[string]familyRef{}
	for _, f := range fams {
		if !nameRe.MatchString(f.name) {
			report("%s: %q must match %s (megh_ prefix, lowercase snake case)",
				f.source, f.name, nameRe)
		}
		for _, reserved := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(f.name, reserved) {
				report("%s: %q ends in reserved exposition suffix %q",
					f.source, f.name, reserved)
			}
		}
		switch f.typ {
		case "counter":
			if !strings.HasSuffix(f.name, "_total") {
				report("%s: counter %q must end in _total", f.source, f.name)
			}
		case "histogram":
			if !strings.HasSuffix(f.name, "_seconds") && !strings.HasSuffix(f.name, "_bytes") {
				report("%s: histogram %q must end in a unit suffix (_seconds or _bytes)",
					f.source, f.name)
			}
		default:
			if strings.HasSuffix(f.name, "_total") {
				report("%s: %s %q must not end in _total (reserved for counters)",
					f.source, f.typ, f.name)
			}
		}
		if prev, ok := types[f.name]; ok && prev.typ != f.typ {
			report("duplicate registration: %q is a %s in %s but a %s in %s",
				f.name, prev.typ, prev.source, f.typ, f.source)
		} else if !ok {
			types[f.name] = f
		}
	}
	sort.Strings(out)
	return out
}

// gatherServer builds the HTTP service and snapshots its registry — the
// default session's learner, health tracker, HTTP middleware, and session
// gauges all register here.
func gatherServer() ([]obs.FamilySnapshot, error) {
	svc, err := server.New(server.Config{NumVMs: 4, NumHosts: 3, Seed: 1})
	if err != nil {
		return nil, err
	}
	svc.Handler() // route histograms register at handler construction
	return svc.Metrics().Gather(), nil
}

// gatherCluster builds a cluster-mode service so the cluster runtime's
// counters and gauges (megh_cluster_*) register and get linted too.
func gatherCluster() ([]obs.FamilySnapshot, error) {
	dir, err := os.MkdirTemp("", "metriclint-cluster-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	svc, err := server.New(server.Config{
		NumVMs: 4, NumHosts: 3, Seed: 1,
		CheckpointDir: dir,
		Cluster: &server.ClusterConfig{
			NodeName:     "lint",
			AdvertiseURL: "http://localhost:1",
			Peers:        map[string]string{"peer": "http://localhost:2"},
		},
	})
	if err != nil {
		return nil, err
	}
	svc.Handler()
	return svc.Metrics().Gather(), nil
}

// gatherExposition renders the service's full /metrics page — including
// the SLO gauges published at scrape time and the fleet block that
// renames per-session families to megh_session_* — and lints its # TYPE
// lines, so the rewriting layers obey the same conventions as direct
// registrations.
func gatherExposition() ([]familyRef, error) {
	svc, err := server.New(server.Config{NumVMs: 4, NumHosts: 3, Seed: 1})
	if err != nil {
		return nil, err
	}
	h := svc.Handler()

	spec := strings.NewReader(`{"num_vms":4,"num_hosts":3,"seed":1}`)
	req := httptest.NewRequest(http.MethodPut, "/v2/sessions/lint", spec)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusCreated {
		return nil, fmt.Errorf("creating lint session: %d %s", rec.Code, rec.Body)
	}
	// One decide gives the lint session traffic so the fleet block renders
	// its renamed families with non-empty points.
	decide := bytes.NewReader(worldJSON())
	req = httptest.NewRequest(http.MethodPost, "/v2/sessions/lint/decide", decide)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("driving lint session: %d %s", rec.Code, rec.Body)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %d", rec.Code)
	}
	var fams []familyRef
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 4 && fields[0] == "#" && fields[1] == "TYPE" {
			fams = append(fams, familyRef{name: fields[2], typ: fields[3], source: "/metrics"})
		}
	}
	return fams, sc.Err()
}

// worldJSON is a minimal valid 4×3 decide snapshot.
func worldJSON() []byte {
	var b bytes.Buffer
	b.WriteString(`{"step":0,"hosts":[`)
	for i := 0; i < 3; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`{"mips":4000,"ram_mb":8192,"bandwidth_mbps":1000}`)
	}
	b.WriteString(`],"vms":[`)
	for j := 0; j < 4; j++ {
		if j > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"host":%d,"utilization":0.5,"mips":2500,"ram_mb":1024,"bandwidth_mbps":100}`, j%3)
	}
	b.WriteString(`]}`)
	return b.Bytes()
}

func gatherCore() ([]obs.FamilySnapshot, error) {
	learner, err := core.New(core.DefaultConfig(4, 3, 1))
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	learner.Instrument(reg)
	return reg.Gather(), nil
}

func gatherHealth() ([]obs.FamilySnapshot, error) {
	learner, err := core.New(core.DefaultConfig(4, 3, 1))
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	health.NewTracker(learner, false, health.Config{}).Instrument(reg)
	return reg.Gather(), nil
}

// gatherSim runs a two-step simulation so the per-step instrumentation
// registers exactly as production runs register it.
func gatherSim() ([]obs.FamilySnapshot, error) {
	lin, err := power.NewLinear("lint", 100, 200)
	if err != nil {
		return nil, err
	}
	host := sim.HostSpec{MIPS: 1000, RAMMB: 4096, BandwidthMbps: 1000, Power: lin}
	vm := sim.VMSpec{MIPS: 1000, RAMMB: 1024, BandwidthMbps: 100}
	reg := obs.NewRegistry()
	s, err := sim.New(sim.Config{
		Hosts:            []sim.HostSpec{host, host, host},
		VMs:              []sim.VMSpec{vm, vm},
		Traces:           []workload.Trace{{0.5, 0.6}, {0.4, 0.5}},
		Steps:            2,
		Seed:             1,
		InitialPlacement: sim.PlacementRoundRobin,
		Metrics:          reg,
	})
	if err != nil {
		return nil, err
	}
	learner, err := core.New(core.DefaultConfig(2, 3, 1))
	if err != nil {
		return nil, err
	}
	if _, err := s.Run(learner); err != nil {
		return nil, err
	}
	return reg.Gather(), nil
}
