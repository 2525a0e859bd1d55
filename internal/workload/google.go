package workload

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// GoogleConfig parameterises the Google-Cluster-like synthetic generator.
//
// §6.2 and Figure 1b of the paper characterise the Google Cluster trace as
// a stream of tasks with durations spread over 10¹–10⁶ seconds following no
// standard distribution, varying start times, low and obfuscated resource
// usage, and each VM running one task to completion before switching to the
// next. We model each VM as a task queue: durations are drawn from a
// mixture of log-uniform components (which produces the heavy, non-standard
// spread of Figure 1b), per-task utilization is low, and tasks are separated
// by short idle gaps.
type GoogleConfig struct {
	// Steps is the trace length; 0 means SevenDays.
	Steps int
	// Seed drives all randomness.
	Seed int64

	// MinDurationSec/MaxDurationSec bound task durations (paper: 10¹–10⁶ s).
	MinDurationSec, MaxDurationSec float64
	// UtilMean/UtilStd shape per-task utilization (lognormal-ish, low).
	UtilMean, UtilStd float64
	// HeavyTaskProb is the chance a task is CPU-heavy, drawing its
	// utilization from [HeavyUtilLo, HeavyUtilHi] instead. Cluster
	// traces mix many near-idle tasks with occasional hot ones.
	HeavyTaskProb            float64
	HeavyUtilLo, HeavyUtilHi float64
	// IdleGapProb is the chance a finished task is followed by an idle gap.
	IdleGapProb float64
	// MaxIdleGapSteps bounds the idle gap length.
	MaxIdleGapSteps int
	// StepSeconds is the sample interval; 0 means 300 (τ = 5 min).
	StepSeconds float64
}

// DefaultGoogleConfig returns parameters matching the paper's description:
// durations 10–10⁶ s, mean utilization well below the PlanetLab trace, short
// idle gaps between tasks.
func DefaultGoogleConfig(seed int64) GoogleConfig {
	return GoogleConfig{
		Steps:           SevenDays,
		Seed:            seed,
		MinDurationSec:  10,
		MaxDurationSec:  1e6,
		UtilMean:        0.05,
		UtilStd:         0.04,
		HeavyTaskProb:   0.08,
		HeavyUtilLo:     0.4,
		HeavyUtilHi:     0.9,
		IdleGapProb:     0.35,
		MaxIdleGapSteps: 6,
		StepSeconds:     300,
	}
}

// Validate checks the configuration for out-of-range parameters.
func (c GoogleConfig) Validate() error {
	if c.Steps < 0 {
		return fmt.Errorf("workload: negative Steps %d", c.Steps)
	}
	if c.MinDurationSec <= 0 || c.MaxDurationSec <= c.MinDurationSec {
		return fmt.Errorf("workload: duration bounds (%g, %g) invalid",
			c.MinDurationSec, c.MaxDurationSec)
	}
	if c.IdleGapProb < 0 || c.IdleGapProb > 1 {
		return fmt.Errorf("workload: IdleGapProb %g out of [0,1]", c.IdleGapProb)
	}
	if c.HeavyTaskProb < 0 || c.HeavyTaskProb > 1 {
		return fmt.Errorf("workload: HeavyTaskProb %g out of [0,1]", c.HeavyTaskProb)
	}
	if c.HeavyTaskProb > 0 && (c.HeavyUtilLo < 0 || c.HeavyUtilHi < c.HeavyUtilLo) {
		return fmt.Errorf("workload: heavy-task utilization bounds (%g, %g) invalid",
			c.HeavyUtilLo, c.HeavyUtilHi)
	}
	if c.StepSeconds < 0 {
		return fmt.Errorf("workload: negative StepSeconds %g", c.StepSeconds)
	}
	return nil
}

// GoogleTask records one synthetic task for duration-distribution analysis
// (Figure 1b).
type GoogleTask struct {
	VM          int
	StartStep   int
	DurationSec float64
	Utilization float64
}

// GenerateGoogle produces n Google-like traces plus the underlying task
// list. Task durations are drawn from a three-component log-uniform mixture
// (short / medium / long) so the resulting log-duration histogram is broad
// and non-standard, as in Figure 1b. Tasks are listed in VM order.
func GenerateGoogle(cfg GoogleConfig, n int) ([]Trace, []GoogleTask, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if n < 0 {
		return nil, nil, fmt.Errorf("workload: negative trace count %d", n)
	}
	steps := cfg.Steps
	if steps == 0 {
		steps = SevenDays
	}
	stepSec := cfg.StepSeconds
	if stepSec == 0 {
		stepSec = 300
	}
	traces := newTraces(n, steps)
	vmTasks := make([][]GoogleTask, n)
	perVM(cfg.Seed, n, func(v int, vr *rand.Rand) {
		tr := traces[v]
		// Stagger start times across the first day.
		t := vr.Intn(StepsPerDay / 2)
		for t < steps {
			durSec := cfg.drawDuration(vr)
			util := cfg.drawUtil(vr)
			durSteps := int(math.Ceil(durSec / stepSec))
			if durSteps < 1 {
				durSteps = 1
			}
			vmTasks[v] = append(vmTasks[v], GoogleTask{
				VM: v, StartStep: t, DurationSec: durSec, Utilization: util,
			})
			for k := 0; k < durSteps && t < steps; k++ {
				// Small within-task jitter: usage is obfuscated/noisy.
				tr[t] = Clamp01(util * (0.9 + 0.2*vr.Float64()))
				t++
			}
			if vr.Float64() < cfg.IdleGapProb && cfg.MaxIdleGapSteps > 0 {
				t += 1 + vr.Intn(cfg.MaxIdleGapSteps)
			}
		}
	})
	return traces, slices.Concat(vmTasks...), nil
}

// drawDuration samples from a mixture of log-uniform components. The
// mixture weights skew short (most cluster tasks are brief) with a long
// tail out to MaxDurationSec.
func (c GoogleConfig) drawDuration(r *rand.Rand) float64 {
	lmin := math.Log10(c.MinDurationSec)
	lmax := math.Log10(c.MaxDurationSec)
	span := lmax - lmin
	var lo, hi float64
	switch p := r.Float64(); {
	case p < 0.55: // short tasks: bottom 40% of the log range
		lo, hi = lmin, lmin+0.4*span
	case p < 0.85: // medium tasks
		lo, hi = lmin+0.3*span, lmin+0.7*span
	default: // long-running services
		lo, hi = lmin+0.6*span, lmax
	}
	return math.Pow(10, lo+r.Float64()*(hi-lo))
}

// drawUtil samples per-task utilization: mostly low with a mild right
// tail, plus an occasional CPU-heavy task.
func (c GoogleConfig) drawUtil(r *rand.Rand) float64 {
	if c.HeavyTaskProb > 0 && r.Float64() < c.HeavyTaskProb {
		return Clamp01(c.HeavyUtilLo + r.Float64()*(c.HeavyUtilHi-c.HeavyUtilLo))
	}
	u := c.UtilMean + c.UtilStd*math.Abs(r.NormFloat64())
	return Clamp01(u)
}
