package server

import (
	"errors"
	"fmt"
	"math"
	"strconv"

	"megh/internal/power"
	"megh/internal/sim"
)

// This file holds the server half of base-elided decide snapshots. The
// learner consumes, per interval, only placements and utilizations; host
// capacities, power models and VM requested resources are constants of the
// MDP, yet they make up about nine tenths of a full snapshot's bytes. A
// full snapshot therefore establishes the session's snapshot base — that
// static half, converted once into the []sim.HostSpec / []sim.VMSpec the
// learner reads — and later requests may name it by digest and leave it
// out (see StateRequest). Every snapshot filled from one base shares the
// base's spec slices, so core's capacity refresh (sameHostSpecs) sees the
// same backing array step after step.
//
// The base lives on the session descriptor, not the learner, so it
// survives LRU eviction; it is not checkpointed, so a restarted or
// failed-over session answers 409 until a full snapshot re-establishes it.

// errBaseConflict marks an elided snapshot whose digest the session does
// not hold; the HTTP layer maps it to 409.
var errBaseConflict = errors.New("snapshot base conflict")

// snapshotBase is the static half of a session's world. Immutable once
// built: requests read it concurrently and snapshots alias its slices.
type snapshotBase struct {
	digest    string
	hostSpecs []sim.HostSpec
	vmSpecs   []sim.VMSpec
}

// staticDigest is the 64-bit content digest of a full snapshot's static
// fields, as the hex string the wire carries, and the number of its failed
// hosts, counted in the same pass. Client and server both call it, so a
// digest names the same content on either side. It identifies content among
// the few bases one session sees; it is not a defence against a caller
// forging collisions, who could only confuse its own session.
//
// MIPS, RAM and bandwidth each feed a lane of their own, so the three
// multiplies of one entry overlap instead of waiting on each other; a host's
// power-model name, when it has one, goes with the host's index into a
// fourth. Every step is a bijection of its lane for a fixed word and of its
// word for a fixed lane, so one changed static word always changes the digest.
func staticDigest(hosts []HostState, vms []VMState) (string, int) {
	seed := uint64(len(hosts))<<32 ^ uint64(len(vms))
	mips, ram, bw, names := seed, seed+1, seed+2, seed+3
	failed := 0
	for i := range hosts {
		hs := &hosts[i]
		mips = mixWord(mips, math.Float64bits(hs.MIPS))
		ram = mixWord(ram, math.Float64bits(hs.RAMMB))
		bw = mixWord(bw, math.Float64bits(hs.BandwidthMbps))
		if name := hs.PowerModel; name != "" {
			names = mixWord(names, uint64(i)<<32|uint64(len(name)))
			for k := 0; k < len(name); k++ {
				names = mixWord(names, uint64(name[k]))
			}
		}
		if hs.Failed {
			failed++
		}
	}
	for j := range vms {
		v := &vms[j]
		mips = mixWord(mips, math.Float64bits(v.MIPS))
		ram = mixWord(ram, math.Float64bits(v.RAMMB))
		bw = mixWord(bw, math.Float64bits(v.BandwidthMbps))
	}
	h := mixWord(mixWord(mixWord(mips, ram), bw), names)
	// splitmix64 finalizer: avalanche the last word's low bits.
	h ^= h >> 30
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return strconv.FormatUint(h, 16), failed
}

// mixWord is one step of a staticDigest lane.
func mixWord(h, w uint64) uint64 {
	h ^= w
	h *= 0xbf58476d1ce4e5b9
	return h ^ h>>29
}

// sameStatic reports whether b's static fields — everything staticDigest
// mixes — are bit-identical to a's, so b has a's digest. Bits, not ==: the
// digest tells +0 from −0. Hosts in one backing array are the same hosts.
func sameStatic(a, b *StateRequest) bool {
	if len(a.Hosts) != len(b.Hosts) || len(a.VMs) != len(b.VMs) {
		return false
	}
	if len(a.Hosts) > 0 && &a.Hosts[0] != &b.Hosts[0] {
		for i := range a.Hosts {
			x, y := &a.Hosts[i], &b.Hosts[i]
			if !sameBits(x.MIPS, y.MIPS) || !sameBits(x.RAMMB, y.RAMMB) ||
				!sameBits(x.BandwidthMbps, y.BandwidthMbps) || x.PowerModel != y.PowerModel {
				return false
			}
		}
	}
	for j := range a.VMs {
		x, y := &a.VMs[j], &b.VMs[j]
		if !sameBits(x.MIPS, y.MIPS) || !sameBits(x.RAMMB, y.RAMMB) ||
			!sameBits(x.BandwidthMbps, y.BandwidthMbps) {
			return false
		}
	}
	return true
}

func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

// newSnapshotBase converts a validated full snapshot's static fields.
// Hosts naming the same power model share one table.
func newSnapshotBase(r *StateRequest, digest string) *snapshotBase {
	b := &snapshotBase{
		digest:    digest,
		hostSpecs: make([]sim.HostSpec, len(r.Hosts)),
		vmSpecs:   make([]sim.VMSpec, len(r.VMs)),
	}
	g4, g5 := power.HPProLiantG4(), power.HPProLiantG5()
	for i, h := range r.Hosts {
		// Unknown or empty names fall back to the G4 table (decisions never
		// read it, it only keeps the HostSpec valid).
		var model power.Model = g4
		if h.PowerModel == "g5" {
			model = g5
		}
		b.hostSpecs[i] = sim.HostSpec{
			MIPS: h.MIPS, RAMMB: h.RAMMB, BandwidthMbps: h.BandwidthMbps, Power: model,
		}
	}
	for j, v := range r.VMs {
		b.vmSpecs[j] = sim.VMSpec{MIPS: v.MIPS, RAMMB: v.RAMMB, BandwidthMbps: v.BandwidthMbps}
	}
	return b
}

// resolveBase validates one decoded snapshot for a session sized by spec and
// returns the base its static half comes from. cur is the base in force
// (nil for none). A full snapshot is validated whole and returns cur when
// its static fields digest to cur's, a freshly built base otherwise; an
// elided one must name cur (errBaseConflict if not) and is checked against
// it. The caller publishes the returned base (adoptBase) once the whole request
// stands and is admitted.
func resolveBase(cur *snapshotBase, r *StateRequest, id string, spec SessionSpec) (*snapshotBase, error) {
	if r.Base == "" {
		if err := r.Validate(); err != nil {
			return nil, err
		}
		if len(r.VMs) != spec.NumVMs || len(r.Hosts) != spec.NumHosts {
			return nil, fmt.Errorf("snapshot is %d×%d, session %q configured for %d×%d",
				len(r.VMs), len(r.Hosts), id, spec.NumVMs, spec.NumHosts)
		}
		digest, _ := staticDigest(r.Hosts, r.VMs)
		if cur != nil && cur.digest == digest {
			return cur, nil
		}
		return newSnapshotBase(r, digest), nil
	}

	if cur == nil || r.Base != cur.digest {
		return nil, fmt.Errorf("%w: session %q does not hold base %q; resend the full snapshot",
			errBaseConflict, id, r.Base)
	}
	if len(r.Hosts) != 0 {
		return nil, fmt.Errorf("server: elided snapshot carries hosts; send failed_hosts, or drop base")
	}
	nH := len(cur.hostSpecs)
	if len(r.VMs) != len(cur.vmSpecs) {
		return nil, fmt.Errorf("elided snapshot has %d VMs, session %q configured for %d×%d",
			len(r.VMs), id, len(cur.vmSpecs), nH)
	}
	if r.Step < 0 {
		return nil, fmt.Errorf("server: negative step %d", r.Step)
	}
	for j := range r.VMs {
		v := &r.VMs[j]
		if v.MIPS != 0 || v.RAMMB != 0 || v.BandwidthMbps != 0 {
			return nil, fmt.Errorf("server: elided snapshot carries resources for VM %d; drop them, or drop base", j)
		}
		if err := v.validateDynamic(j, nH); err != nil {
			return nil, err
		}
	}
	for k, i := range r.FailedHosts {
		if i < 0 || i >= nH {
			return nil, fmt.Errorf("server: failed_hosts names unknown host %d", i)
		}
		if k > 0 && i <= r.FailedHosts[k-1] {
			return nil, fmt.Errorf("server: failed_hosts must be strictly ascending (host %d after %d)",
				i, r.FailedHosts[k-1])
		}
	}
	return cur, nil
}

// retainedSnapshot is a session's one sim.Snapshot, filled in place from
// each request under the session lock. The learner reads a snapshot only
// during the Decide it is passed to (sim.Snapshot's contract; what core
// keeps, the host-spec slice, is the immutable base's), so one serves every
// decide of the session, item after item: storage is O(N + M) per resident
// session whatever the traffic, and a fill allocates nothing.
type retainedSnapshot struct {
	snap sim.Snapshot
	// failed is HostFailed's storage. snap.HostFailed is failed when some
	// host failed and nil otherwise, so no reader scans N false entries.
	failed []bool
	// touched lists the hosts the last fill occupied or failed — the only
	// hosts whose HostVMs, HostUtil and failed entries are not zero, so the
	// only ones the next fill resets.
	touched []int
	// arena is the N slots the per-host lists are carved from: a list's
	// length is known before its first append, so a host's list never regrows
	// and the lists together never outgrow N.
	arena []int
}

// fill converts a request resolveBase accepted into the read-only view the
// policies consume, taking the static half from b — the value resolveBase
// returned for it — and β and τ from the session. It is O(N + hosts occupied
// or failed, now or at the last fill), not O(M). VMs are appended in
// ascending order and each host's demand is summed in list order, so every
// field, trace.Digest64 and therefore every decision are what a fresh build
// (the snapshot oracle in base_test.go) gives. The result is valid until the
// next fill.
func (rs *retainedSnapshot) fill(r *StateRequest, b *snapshotBase, overload, stepSeconds float64) *sim.Snapshot {
	s := &rs.snap
	nH, nV := len(b.hostSpecs), len(b.vmSpecs)
	if len(s.HostUtil) != nH || len(s.VMHost) != nV {
		*rs = retainedSnapshot{
			snap: sim.Snapshot{
				VMHost:   make([]int, nV),
				VMUtil:   make([]float64, nV),
				VMMIPS:   make([]float64, nV),
				HostUtil: make([]float64, nH),
				HostVMs:  make([][]int, nH),
			},
			failed: make([]bool, nH),
			arena:  make([]int, nV),
		}
	}
	// A host joins touched before anything of its is written, so a fill that
	// panicked half way still leaves the next one a complete reset list.
	for _, i := range rs.touched {
		s.HostVMs[i], s.HostUtil[i], rs.failed[i] = nil, 0, false
	}
	rs.touched = rs.touched[:0]
	s.Step, s.StepSeconds, s.OverloadThreshold = r.Step, stepSeconds, overload
	s.VMSpecs, s.HostSpecs = b.vmSpecs, b.hostSpecs

	for i := range r.Hosts {
		if r.Hosts[i].Failed {
			rs.touched = append(rs.touched, i)
			rs.failed[i] = true
		}
	}
	for _, i := range r.FailedHosts {
		if !rs.failed[i] {
			rs.touched = append(rs.touched, i)
			rs.failed[i] = true
		}
	}
	s.HostFailed = nil // touched holds the failed hosts and nothing else yet
	if len(rs.touched) > 0 {
		s.HostFailed = rs.failed
	}
	// First pass: the per-VM fields, and each host's VM count — kept, until
	// the lists are carved, as the length of the host's own list header: a
	// prefix of arena that is measured, never read.
	for j := range r.VMs {
		v := &r.VMs[j]
		s.VMHost[j] = v.Host
		s.VMUtil[j] = v.Utilization
		s.VMMIPS[j] = v.Utilization * b.vmSpecs[j].MIPS
		n := len(s.HostVMs[v.Host])
		if n == 0 && !rs.failed[v.Host] {
			rs.touched = append(rs.touched, v.Host)
		}
		s.HostVMs[v.Host] = rs.arena[:n+1]
	}
	off := 0
	for _, i := range rs.touched {
		n := len(s.HostVMs[i])
		s.HostVMs[i] = rs.arena[off : off : off+n]
		off += n
	}
	for j := range r.VMs {
		h := r.VMs[j].Host
		s.HostVMs[h] = append(s.HostVMs[h], j)
	}
	for _, i := range rs.touched {
		var mips float64
		for _, j := range s.HostVMs[i] {
			mips += s.VMMIPS[j]
		}
		s.HostUtil[i] = mips / b.hostSpecs[i].MIPS
	}
	return s
}
