package workload

import "fmt"

// PhaseSpec is one segment of a phase script: from step From onward the
// per-VM load is multiplied by LoadScale, until the next segment starts.
// Scripts model the VMAgent-style regimes — a fading phase scales load
// down, a recovering phase brings it back, an expansion phase overshoots —
// so the same underlying diurnal process plays out under a scripted
// envelope rather than a stationary one.
type PhaseSpec struct {
	// Name labels the phase in docs and experiment rows ("fading", …).
	Name string
	// From is the first step the phase covers (the first phase must start
	// at 0; later phases must start strictly after their predecessor).
	From int
	// LoadScale multiplies each VM's utilization during the phase; it
	// must be non-negative, and the scaled value is clamped back to [0,1].
	LoadScale float64
}

// ValidatePhases checks a phase script: non-empty names, a phase at step 0,
// strictly ascending starts, and non-negative scales. An empty script is
// valid (no modulation).
func ValidatePhases(phases []PhaseSpec) error {
	for k, p := range phases {
		if p.Name == "" {
			return fmt.Errorf("workload: phase %d has no name", k)
		}
		if p.LoadScale < 0 {
			return fmt.Errorf("workload: phase %q LoadScale %g negative", p.Name, p.LoadScale)
		}
		if k == 0 {
			if p.From != 0 {
				return fmt.Errorf("workload: first phase %q starts at %d, want 0", p.Name, p.From)
			}
			continue
		}
		if p.From <= phases[k-1].From {
			return fmt.Errorf("workload: phase %q starts at %d, not after %q at %d",
				p.Name, p.From, phases[k-1].Name, phases[k-1].From)
		}
	}
	return nil
}

// PhaseAt returns the phase covering step t, or a neutral unnamed phase for
// an empty script.
func PhaseAt(phases []PhaseSpec, t int) PhaseSpec {
	cur := PhaseSpec{LoadScale: 1}
	for _, p := range phases {
		if p.From > t {
			break
		}
		cur = p
	}
	return cur
}

// LoadScaleAt returns the load multiplier in effect at step t.
func LoadScaleAt(phases []PhaseSpec, t int) float64 {
	return PhaseAt(phases, t).LoadScale
}

// GeneratePhased produces n diurnal traces with the phase script's load
// envelope applied: trace[t] = Clamp01(diurnal[t] × LoadScaleAt(t)). The
// underlying diurnal process is generated once from cfg's seed, so two
// scripts over the same cfg differ only by their envelopes.
func GeneratePhased(cfg DiurnalConfig, phases []PhaseSpec, n int) ([]Trace, error) {
	if err := ValidatePhases(phases); err != nil {
		return nil, err
	}
	traces, err := GenerateDiurnal(cfg, n)
	if err != nil {
		return nil, err
	}
	if len(phases) == 0 || len(traces) == 0 {
		return traces, nil
	}
	scale := make([]float64, len(traces[0]))
	for t := range scale {
		scale[t] = LoadScaleAt(phases, t)
	}
	for _, tr := range traces {
		for t := range tr {
			tr[t] = Clamp01(tr[t] * scale[t])
		}
	}
	return traces, nil
}
