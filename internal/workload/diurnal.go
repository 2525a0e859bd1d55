package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// DiurnalConfig parameterises the periodic workload generator — the
// "additional knowledge about the workload, such as periodicity" extension
// the paper's §7 names as future work. Each VM's utilization follows a
// daily sinusoid with a per-VM phase (users in different time zones),
// amplitude jitter, AR(1) noise, and optional bursts layered on top.
type DiurnalConfig struct {
	// Steps is the trace length; 0 means SevenDays.
	Steps int
	// Seed drives all randomness.
	Seed int64
	// BaseMean is the average utilization level (default 0.3).
	BaseMean float64
	// Amplitude is the peak-to-mean sinusoid swing (default 0.25).
	Amplitude float64
	// NoiseStd is the AR(1) noise level (default 0.05).
	NoiseStd float64
	// PeriodSteps is the cycle length; 0 means StepsPerDay (24 h).
	PeriodSteps int
	// BurstProb adds PlanetLab-style saturation bursts on top of the
	// periodic baseline with this per-step probability (default 0).
	BurstProb float64
}

// DefaultDiurnalConfig returns a gentle day/night pattern.
func DefaultDiurnalConfig(seed int64) DiurnalConfig {
	return DiurnalConfig{
		Steps:       SevenDays,
		Seed:        seed,
		BaseMean:    0.30,
		Amplitude:   0.25,
		NoiseStd:    0.05,
		PeriodSteps: StepsPerDay,
	}
}

// Validate checks the configuration.
func (c DiurnalConfig) Validate() error {
	switch {
	case c.Steps < 0:
		return fmt.Errorf("workload: negative Steps %d", c.Steps)
	case c.BaseMean < 0 || c.BaseMean > 1:
		return fmt.Errorf("workload: BaseMean %g out of [0,1]", c.BaseMean)
	case c.Amplitude < 0 || c.Amplitude > 1:
		return fmt.Errorf("workload: Amplitude %g out of [0,1]", c.Amplitude)
	case c.NoiseStd < 0:
		return fmt.Errorf("workload: negative NoiseStd %g", c.NoiseStd)
	case c.PeriodSteps < 0:
		return fmt.Errorf("workload: negative PeriodSteps %d", c.PeriodSteps)
	case c.BurstProb < 0 || c.BurstProb > 1:
		return fmt.Errorf("workload: BurstProb %g out of [0,1]", c.BurstProb)
	}
	return nil
}

// GenerateDiurnal produces n periodic traces, the same at any GOMAXPROCS.
func GenerateDiurnal(cfg DiurnalConfig, n int) ([]Trace, error) {
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
	period := cfg.PeriodSteps
	if period == 0 {
		period = StepsPerDay
	}
	traces := newTraces(n, steps)
	perVM(cfg.Seed, n, func(v int, vr *rand.Rand) {
		phase := vr.Float64() * 2 * math.Pi
		amp := cfg.Amplitude * (0.7 + 0.6*vr.Float64())
		tr := traces[v]
		noise := 0.0
		burstLeft := 0
		for t := 0; t < steps; t++ {
			u := cfg.BaseMean + amp*math.Sin(2*math.Pi*float64(t)/float64(period)+phase)
			noise = 0.8*noise + cfg.NoiseStd*vr.NormFloat64()
			u += noise
			if burstLeft > 0 {
				burstLeft--
				u = math.Max(u, 0.85+0.1*vr.Float64())
			} else if cfg.BurstProb > 0 && vr.Float64() < cfg.BurstProb {
				burstLeft = 1 + vr.Intn(8)
			}
			tr[t] = Clamp01(u)
		}
	})
	return traces, nil
}
