package sim

// Snapshot is the read-only view of the data center a Policy sees at one
// decision step. All slices are owned by the simulator and reused across
// steps for efficiency; policies must not mutate or retain them beyond the
// Decide call (copy anything you keep). The HostHistory and VMHistory rows
// are views the simulator hands out again every 2·Config.HistoryLen steps,
// over storage that later windows share: a policy that assigns into one
// corrupts a later step's window, not only its own.
type Snapshot struct {
	// Step is the 0-based step index.
	Step int
	// StepSeconds is τ.
	StepSeconds float64
	// OverloadThreshold is β.
	OverloadThreshold float64

	// VMHost[j] is the index of the host currently running VM j.
	VMHost []int
	// VMUtil[j] is VM j's demanded fraction of its own requested MIPS.
	VMUtil []float64
	// VMMIPS[j] is VM j's demanded MIPS (VMUtil[j] × spec MIPS).
	VMMIPS []float64
	// VMSpecs holds the static VM descriptions.
	VMSpecs []VMSpec

	// HostUtil[i] is host i's demanded-capacity fraction (may exceed 1
	// when demand outstrips capacity).
	HostUtil []float64
	// HostVMs[i] lists the VMs on host i.
	HostVMs [][]int
	// HostSpecs holds the static host descriptions.
	HostSpecs []HostSpec

	// HostHistory[i] is host i's recent utilization window, oldest first,
	// at most Config.HistoryLen entries including the current step.
	HostHistory [][]float64
	// VMHistory[j] is VM j's recent utilization window, oldest first,
	// same length policy as HostHistory.
	VMHistory [][]float64
	// HostFailed[i] reports an injected outage on host i this step. Nil
	// means no host failed, so a reader indexes it only when it is non-empty.
	HostFailed []bool
	// VMAlive[j] reports whether VM slot j currently exists. Nil means
	// the run has no lifecycle: every slot is alive, the historical
	// fixed-population world. A dead slot reads VMHost -1, zero demand,
	// and sits in no host's list.
	VMAlive []bool

	// migModel optionally overrides MigrationSeconds.
	migModel MigrationTimeModel
}

// Clone returns a deep copy of the snapshot that shares no mutable storage
// with the original. The simulator reuses every slice across steps, so a
// snapshot is only valid inside the Decide call it was passed to; callers
// that queue snapshots for later — most importantly producers building a
// core.DecideBatch request across several steps — must clone each one
// first. Static spec slices are copied too (cheap relative to the history
// windows, and it keeps the contract simple: a clone is always safe).
func (s *Snapshot) Clone() *Snapshot {
	c := *s
	c.VMHost = append([]int(nil), s.VMHost...)
	c.VMUtil = append([]float64(nil), s.VMUtil...)
	c.VMMIPS = append([]float64(nil), s.VMMIPS...)
	c.VMSpecs = append([]VMSpec(nil), s.VMSpecs...)
	c.HostUtil = append([]float64(nil), s.HostUtil...)
	c.HostVMs = cloneNested(s.HostVMs)
	c.HostSpecs = append([]HostSpec(nil), s.HostSpecs...)
	c.HostHistory = cloneNested(s.HostHistory)
	c.VMHistory = cloneNested(s.VMHistory)
	c.HostFailed = append([]bool(nil), s.HostFailed...)
	c.VMAlive = append([]bool(nil), s.VMAlive...)
	return &c
}

// cloneNested deep-copies a slice of slices, preserving nil-ness of both
// levels.
func cloneNested[E any](src [][]E) [][]E {
	if src == nil {
		return nil
	}
	out := make([][]E, len(src))
	for i, row := range src {
		out[i] = append([]E(nil), row...)
	}
	return out
}

// NumVMs returns the number of VM slots (alive or not).
func (s *Snapshot) NumVMs() int { return len(s.VMHost) }

// VMLive reports whether VM slot j currently exists.
func (s *Snapshot) VMLive(j int) bool {
	return s.VMAlive == nil || s.VMAlive[j]
}

// LiveVMs counts the slots currently alive.
func (s *Snapshot) LiveVMs() int {
	if s.VMAlive == nil {
		return len(s.VMHost)
	}
	n := 0
	for _, a := range s.VMAlive {
		if a {
			n++
		}
	}
	return n
}

// NumHosts returns the number of hosts.
func (s *Snapshot) NumHosts() int { return len(s.HostUtil) }

// HostActive reports whether host i currently runs at least one VM.
func (s *Snapshot) HostActive(i int) bool { return len(s.HostVMs[i]) > 0 }

// ActiveHosts counts hosts running at least one VM.
func (s *Snapshot) ActiveHosts() int {
	n := 0
	for i := range s.HostVMs {
		if len(s.HostVMs[i]) > 0 {
			n++
		}
	}
	return n
}

// HostOverloaded reports whether host i's utilization exceeds β. A failed
// host counts as overloaded so that overload-driven policies evacuate it
// without failure-specific logic.
func (s *Snapshot) HostOverloaded(i int) bool {
	if len(s.HostFailed) > 0 && s.HostFailed[i] {
		return true
	}
	return s.HostUtil[i] > s.OverloadThreshold
}

// FitsOn reports whether VM j could run on host i right now: enough spare
// RAM and enough spare MIPS capacity at current demand, and the host not
// being failed. The VM's current host always fits it (a stay is always
// legal). A dead slot fits nowhere — it cannot be migrated.
func (s *Snapshot) FitsOn(j, i int) bool {
	if !s.VMLive(j) {
		return false
	}
	if s.VMHost[j] == i {
		return true
	}
	if len(s.HostFailed) > 0 && s.HostFailed[i] {
		return false
	}
	spec := s.HostSpecs[i]
	var ram, mips float64
	for _, other := range s.HostVMs[i] {
		ram += s.VMSpecs[other].RAMMB
		mips += s.VMMIPS[other]
	}
	return ram+s.VMSpecs[j].RAMMB <= spec.RAMMB &&
		mips+s.VMMIPS[j] <= spec.MIPS
}

// MigrationSeconds returns the live-migration copy time for VM j moving to
// host dest. The default model is RAM divided by the smaller of the two
// hosts' bandwidths (paper §3.3: TM = M/B; RAM is MiB, bandwidth Mbit/s,
// so ×8 converts); a Config.Migration model overrides it.
func (s *Snapshot) MigrationSeconds(j, dest int) float64 {
	if s.migModel != nil {
		return s.migModel.MigrationSeconds(s, j, dest)
	}
	src := s.VMHost[j]
	bw := s.HostSpecs[src].BandwidthMbps
	if b := s.HostSpecs[dest].BandwidthMbps; b < bw {
		bw = b
	}
	if bw <= 0 {
		return 0
	}
	return s.VMSpecs[j].RAMMB * 8 / bw
}
