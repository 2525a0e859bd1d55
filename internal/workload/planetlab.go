package workload

import (
	"fmt"
	"math/rand"
)

// PlanetLabConfig parameterises the PlanetLab-like synthetic generator.
//
// §6.2 of the paper characterises the PlanetLab CoMoN traces as: 5-minute
// samples over 7 days, workloads running continuously, per-sample average
// ≈ 12 %, standard deviation ≈ 34 %, and instantaneous levels across VMs
// ranging from ≈ 5 % to ≈ 90 %. A population mean of 12 % with a 34 %
// standard deviation forces a bimodal shape — most samples near idle with
// sustained near-saturation bursts — which we model as a two-state Markov
// regime switcher per VM.
type PlanetLabConfig struct {
	// Steps is the trace length; 0 means SevenDays (2016).
	Steps int
	// Seed drives all randomness; traces are deterministic given (Seed, n).
	Seed int64

	// IdleMean/IdleStd shape the idle-regime utilization (clamped ≥ IdleFloor).
	IdleMean, IdleStd float64
	// BusyMean/BusyStd shape the busy-regime utilization (clamped ≤ BusyCeil).
	BusyMean, BusyStd float64
	// IdleFloor and BusyCeil bound the two regimes.
	IdleFloor, BusyCeil float64
	// PIdleToBusy and PBusyToIdle are the per-step regime switch
	// probabilities; their ratio sets the stationary busy fraction
	// PIdleToBusy / (PIdleToBusy + PBusyToIdle).
	PIdleToBusy, PBusyToIdle float64
}

// DefaultPlanetLabConfig returns parameters fitted to the paper's published
// trace statistics: stationary busy fraction ≈ 11.5 %, busy level ≈ 92 %,
// idle level ≈ 3 %, giving sample mean ≈ 12 % and std ≈ 31–35 %.
func DefaultPlanetLabConfig(seed int64) PlanetLabConfig {
	return PlanetLabConfig{
		Steps:       SevenDays,
		Seed:        seed,
		IdleMean:    0.03,
		IdleStd:     0.025,
		BusyMean:    0.92,
		BusyStd:     0.06,
		IdleFloor:   0.0,
		BusyCeil:    1.0,
		PIdleToBusy: 0.013,
		PBusyToIdle: 0.10,
	}
}

// Validate checks the configuration for out-of-range parameters.
func (c PlanetLabConfig) Validate() error {
	if c.Steps < 0 {
		return fmt.Errorf("workload: negative Steps %d", c.Steps)
	}
	if c.PIdleToBusy < 0 || c.PIdleToBusy > 1 || c.PBusyToIdle < 0 || c.PBusyToIdle > 1 {
		return fmt.Errorf("workload: switch probabilities (%g, %g) out of [0,1]",
			c.PIdleToBusy, c.PBusyToIdle)
	}
	if c.IdleMean < 0 || c.BusyMean > 1 || c.IdleMean > c.BusyMean {
		return fmt.Errorf("workload: regime means (%g, %g) invalid", c.IdleMean, c.BusyMean)
	}
	return nil
}

// GeneratePlanetLab produces n independent PlanetLab-like traces. Each VM
// follows a two-state (idle/busy) Markov chain; within a regime the level
// follows a clamped Gaussian around the regime mean with slight AR(1)
// smoothing so bursts are sustained rather than i.i.d. noise. The output is
// the same at any GOMAXPROCS.
func GeneratePlanetLab(cfg PlanetLabConfig, n int) ([]Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("workload: negative trace count %d", n)
	}
	steps := cfg.Steps
	if steps == 0 {
		steps = SevenDays
	}
	traces := newTraces(n, steps)
	busyFrac := 0.0
	if p := cfg.PIdleToBusy + cfg.PBusyToIdle; p > 0 {
		busyFrac = cfg.PIdleToBusy / p
	}
	perVM(cfg.Seed, n, func(v int, vr *rand.Rand) {
		tr := traces[v]
		busy := vr.Float64() < busyFrac // start from the stationary mix
		level := cfg.regimeLevel(vr, busy)
		for t := 0; t < steps; t++ {
			switch {
			case busy && vr.Float64() < cfg.PBusyToIdle:
				busy = false
				level = cfg.regimeLevel(vr, busy)
			case !busy && vr.Float64() < cfg.PIdleToBusy:
				busy = true
				level = cfg.regimeLevel(vr, busy)
			default:
				// AR(1) drift toward the regime mean.
				target := cfg.regimeLevel(vr, busy)
				level = 0.8*level + 0.2*target
			}
			tr[t] = Clamp01(level)
		}
	})
	return traces, nil
}

func (c PlanetLabConfig) regimeLevel(r *rand.Rand, busy bool) float64 {
	if busy {
		return gaussClamped(r, c.BusyMean, c.BusyStd, c.IdleFloor, c.BusyCeil)
	}
	return gaussClamped(r, c.IdleMean, c.IdleStd, c.IdleFloor, c.BusyCeil)
}
