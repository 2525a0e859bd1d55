package server

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"
)

// fillFromWorld materializes the full form of an elided request resolveBase
// accepted against world's base: the reference the elided path must agree
// with.
func fillFromWorld(r, world StateRequest) StateRequest {
	full := StateRequest{Step: r.Step}
	full.Hosts = append(full.Hosts, world.Hosts...)
	for _, i := range r.FailedHosts {
		full.Hosts[i].Failed = true
	}
	full.VMs = append(full.VMs, r.VMs...)
	for j := range full.VMs {
		full.VMs[j].MIPS = world.VMs[j].MIPS
		full.VMs[j].RAMMB = world.VMs[j].RAMMB
		full.VMs[j].BandwidthMbps = world.VMs[j].BandwidthMbps
	}
	return full
}

// FuzzDecideRequestJSON drives the decide ingress path — decodeRequest,
// resolveBase (Validate for the full form, the base checks for the elided
// one), snapshot conversion — with arbitrary bytes, against a session that
// already holds a 3×2 base. Nothing may panic, and any request the path
// accepts must convert into a structurally sound snapshot: placement
// bijection intact, utilizations finite, MIPS demand consistent. An elided
// request is accepted only if its filled-in full form validates, and then
// converts to the very same snapshot. This is the boundary a hostile or
// buggy VMM client hits.
func FuzzDecideRequestJSON(f *testing.F) {
	world := testWorld(3, 2, true)
	held := newSnapshotBase(&world, staticDigest(world.Hosts, world.VMs))

	valid, err := json.Marshal(world)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{"step":0,"hosts":[{"mips":4000,"ram_mb":8192}],"vms":[{"host":0,"utilization":0.5,"mips":1000,"ram_mb":512}]}`))
	f.Add([]byte(`{"step":-1,"hosts":[],"vms":[]}`))
	f.Add([]byte(`{"vms":[{"host":9}]}`))
	f.Add([]byte(`{"hosts":[{"mips":1e309}]}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{}`))
	// Elided seeds: well-formed, then one fault each.
	const vms = `"vms":[{"host":0,"utilization":1},{"host":0,"utilization":0.3},{"host":1,"utilization":0.3}]`
	f.Add([]byte(fmt.Sprintf(`{"step":4,"base":%q,"failed_hosts":[1],%s}`, held.digest, vms)))
	f.Add([]byte(fmt.Sprintf(`{"step":4,"failed_hosts":[1],%s}`, vms)))                                     // no base named
	f.Add([]byte(fmt.Sprintf(`{"step":4,"base":"feedface",%s}`, vms)))                                      // digest mismatch
	f.Add([]byte(fmt.Sprintf(`{"step":4,"base":%q,"failed_hosts":[2],%s}`, held.digest, vms)))              // out of range
	f.Add([]byte(fmt.Sprintf(`{"step":4,"base":%q,"failed_hosts":[-1],%s}`, held.digest, vms)))             // out of range
	f.Add([]byte(fmt.Sprintf(`{"step":4,"base":%q,"failed_hosts":[1,1],%s}`, held.digest, vms)))            // duplicated
	f.Add([]byte(fmt.Sprintf(`{"step":4,"base":%q,"vms":[{"host":0,"utilization":1}]}`, held.digest)))      // another size
	f.Add([]byte(fmt.Sprintf(`{"step":4,"base":%q,"hosts":[{"mips":1,"ram_mb":1}],%s}`, held.digest, vms))) // hosts and base
	f.Add([]byte(fmt.Sprintf(`{"step":4,"base":%q,"vms":[{"host":0,"utilization":1,"mips":9},{"host":0,"utilization":0.3},{"host":1,"utilization":2}]}`, held.digest)))

	f.Fuzz(func(t *testing.T, data []byte) {
		// The decode itself is differential: whatever the bytes, alone, as a
		// batch item's state or as a feedback post, the service decodes them
		// to what encoding/json does, error text included.
		decodeAgrees[StateRequest](t, data)
		decodeAgrees[FeedbackRequest](t, data)
		for _, wrapped := range batchWraps(data) {
			decodeAgrees[BatchDecideRequest](t, wrapped)
		}
		var req StateRequest
		if _, err := decodeRequest(data, &req, new(requestScratch)); err != nil {
			return
		}
		// Resource guard: JSON can declare arbitrarily many hosts/VMs;
		// conversion is linear but keep the harness snappy.
		if len(req.Hosts) > 256 || len(req.VMs) > 256 {
			return
		}
		// A full form sizes its own session, so every shape Validate accepts
		// reaches the conversion; an elided one meets the held 3×2 base.
		spec := SessionSpec{NumVMs: len(req.VMs), NumHosts: len(req.Hosts)}
		base, err := resolveBase(held, &req, "fuzz", spec)
		if err != nil {
			return
		}
		nH, nV := len(base.hostSpecs), len(base.vmSpecs)
		snap := new(retainedSnapshot).fill(&req, base, 0.7, 300)
		sameSnapshot(t, "first fill", snap, req.snapshot(base, 0.7, 300))
		if len(snap.HostVMs) != nH || len(snap.VMHost) != nV || len(req.VMs) != nV {
			t.Fatalf("snapshot dims %d×%d, request has %d VMs, base %d×%d",
				len(snap.HostVMs), len(snap.VMHost), len(req.VMs), nH, nV)
		}
		seen := make([]bool, nV)
		for h, vms := range snap.HostVMs {
			for _, j := range vms {
				if j < 0 || j >= nV || seen[j] {
					t.Fatalf("host %d lists VM %d out of range or twice", h, j)
				}
				seen[j] = true
				if snap.VMHost[j] != h {
					t.Fatalf("VM %d in host %d's list but VMHost says %d", j, h, snap.VMHost[j])
				}
			}
		}
		for j, ok := range seen {
			if !ok {
				t.Fatalf("VM %d missing from every host list", j)
			}
		}
		for i, u := range snap.HostUtil {
			if math.IsNaN(u) || math.IsInf(u, 0) || u < 0 {
				t.Fatalf("host %d utilization %g from validated request", i, u)
			}
		}
		for j, mips := range snap.VMMIPS {
			if math.IsNaN(mips) || math.IsInf(mips, 0) || mips < 0 {
				t.Fatalf("VM %d demand %g MIPS from validated request", j, mips)
			}
		}
		if req.Base == "" {
			return
		}
		// Accepted elided form: the full form it stands for must be
		// acceptable too, resolve to the same base, and mean the same world.
		full := fillFromWorld(req, world)
		fullBase, err := resolveBase(held, &full, "fuzz", SessionSpec{NumVMs: nV, NumHosts: nH})
		if err != nil {
			t.Fatalf("elided request accepted, but its full form is refused: %v\nelided: %s", err, data)
		}
		if fullBase != held {
			t.Fatalf("filled full form digests to %q, base is %q", fullBase.digest, held.digest)
		}
		sameSnapshot(t, "elided form against its full form", snap, full.snapshot(fullBase, 0.7, 300))
	})
}
