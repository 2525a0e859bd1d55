package obs

import (
	"fmt"
	"sync"
	"time"
)

// SLOWindow names one burn-rate evaluation window (e.g. {"5m", 5*time.Minute}).
type SLOWindow struct {
	Name     string
	Duration time.Duration
}

// DefSLOWindows is the classic short/long multi-window pair: a fast 5m
// window that reacts quickly and a 1h window that filters blips.
func DefSLOWindows() []SLOWindow {
	return []SLOWindow{
		{Name: "5m", Duration: 5 * time.Minute},
		{Name: "1h", Duration: time.Hour},
	}
}

// SLOConfig configures one latency service-level objective.
type SLOConfig struct {
	// Name distinguishes the objective in gauge names ("decide" →
	// megh_slo_decide_burn_rate{window="5m"}).
	Name string
	// Objective is the latency threshold in seconds; a request is "good"
	// when it completes within it.
	Objective float64
	// Target is the required good fraction (e.g. 0.99 means 1% error
	// budget). Defaults to 0.99.
	Target float64
	// Windows are the burn-rate evaluation windows; DefSLOWindows when nil.
	Windows []SLOWindow
	// FastBurnThreshold is the burn rate above which, sustained across
	// every window simultaneously, the SLO reports FastBurn (page-worthy).
	// Defaults to 14.4, the conventional 5m/1h multi-window page threshold.
	FastBurnThreshold float64
	// Now is the clock; time.Now when nil. Injectable for tests.
	Now func() time.Time
}

// sloRing is one window's time-sliced good/total ring. Each of the n slots
// covers width of wall time; stale slots are lazily zeroed when the clock
// advances past them, so the ring always covers the trailing n*width span.
type sloRing struct {
	width time.Duration
	epoch []int64 // absolute slot number last written into each index
	good  []int64
	total []int64
}

func newSLORing(window time.Duration) *sloRing {
	const slots = 60
	w := window / slots
	if w <= 0 {
		w = time.Second
	}
	return &sloRing{
		width: w,
		epoch: make([]int64, slots),
		good:  make([]int64, slots),
		total: make([]int64, slots),
	}
}

func (r *sloRing) observe(now time.Time, good bool, n int64) {
	slot := int64(now.UnixNano()) / int64(r.width)
	i := int(slot % int64(len(r.epoch)))
	if i < 0 {
		i += len(r.epoch)
	}
	if r.epoch[i] != slot {
		r.epoch[i] = slot
		r.good[i] = 0
		r.total[i] = 0
	}
	r.total[i] += n
	if good {
		r.good[i] += n
	}
}

func (r *sloRing) tally(now time.Time) (good, total int64) {
	slot := int64(now.UnixNano()) / int64(r.width)
	min := slot - int64(len(r.epoch)) + 1
	for i := range r.epoch {
		if r.epoch[i] >= min && r.epoch[i] <= slot {
			good += r.good[i]
			total += r.total[i]
		}
	}
	return good, total
}

// SLO tracks a latency objective over multiple trailing windows and reports
// burn rates: bad-fraction divided by the error budget (1−target). A burn
// rate of 1 means the error budget is being consumed exactly at the
// sustainable rate; 14.4 over both a 5m and 1h window is the conventional
// fast-burn page condition.
type SLO struct {
	cfg  SLOConfig
	mu   sync.Mutex
	wins []*sloRing
}

// NewSLO builds an SLO tracker; a nil receiver elsewhere means "no SLO
// configured" and every method is a no-op.
func NewSLO(cfg SLOConfig) *SLO {
	if cfg.Target <= 0 || cfg.Target >= 1 {
		cfg.Target = 0.99
	}
	if len(cfg.Windows) == 0 {
		cfg.Windows = DefSLOWindows()
	}
	if cfg.FastBurnThreshold <= 0 {
		cfg.FastBurnThreshold = 14.4
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	s := &SLO{cfg: cfg}
	for _, w := range cfg.Windows {
		s.wins = append(s.wins, newSLORing(w.Duration))
	}
	return s
}

// ObserveN records n requests that each took latencySeconds against the
// objective: a decide is one, a batch reports its per-item amortized latency.
func (s *SLO) ObserveN(latencySeconds float64, n int64) {
	if s == nil || n <= 0 {
		return
	}
	now := s.cfg.Now()
	good := latencySeconds <= s.cfg.Objective
	s.mu.Lock()
	for _, r := range s.wins {
		r.observe(now, good, n)
	}
	s.mu.Unlock()
}

// SLOWindowStatus is one window's burn-rate reading.
type SLOWindowStatus struct {
	Window      string  `json:"window"`
	Seconds     float64 `json:"seconds"`
	Good        int64   `json:"good"`
	Total       int64   `json:"total"`
	BadFraction float64 `json:"bad_fraction"`
	BurnRate    float64 `json:"burn_rate"`
}

// SLOStatus is a point-in-time evaluation of the objective.
type SLOStatus struct {
	Name      string            `json:"name"`
	Objective float64           `json:"objective_seconds"`
	Target    float64           `json:"target"`
	Windows   []SLOWindowStatus `json:"windows"`
	// FastBurn is true when every window's burn rate is at or above the
	// fast-burn threshold — the multi-window page condition.
	FastBurn bool `json:"fast_burn"`
}

// Status evaluates every window at the current clock reading.
func (s *SLO) Status() SLOStatus {
	if s == nil {
		return SLOStatus{}
	}
	now := s.cfg.Now()
	budget := 1 - s.cfg.Target
	st := SLOStatus{Name: s.cfg.Name, Objective: s.cfg.Objective, Target: s.cfg.Target}
	burning := 0
	s.mu.Lock()
	for i, r := range s.wins {
		good, total := r.tally(now)
		ws := SLOWindowStatus{
			Window:  s.cfg.Windows[i].Name,
			Seconds: s.cfg.Windows[i].Duration.Seconds(),
			Good:    good,
			Total:   total,
		}
		if total > 0 {
			ws.BadFraction = float64(total-good) / float64(total)
			ws.BurnRate = ws.BadFraction / budget
		}
		if ws.BurnRate >= s.cfg.FastBurnThreshold {
			burning++
		}
		st.Windows = append(st.Windows, ws)
	}
	s.mu.Unlock()
	st.FastBurn = len(st.Windows) > 0 && burning == len(st.Windows)
	return st
}

// Publish refreshes the SLO's gauges in reg: one burn-rate and one
// bad-fraction gauge per window, plus a 0/1 fast-burn gauge. Meant to be
// called from the /metrics handler just before the registry is written, so
// scrapes always see current readings without a background ticker.
func (s *SLO) Publish(reg *Registry) {
	if s == nil || reg == nil {
		return
	}
	st := s.Status()
	for _, w := range st.Windows {
		lbl := Labels{"window": w.Window}
		reg.Gauge(fmt.Sprintf("megh_slo_%s_burn_rate", s.cfg.Name),
			"SLO burn rate (bad fraction over error budget) per window.", lbl).Set(w.BurnRate)
		reg.Gauge(fmt.Sprintf("megh_slo_%s_bad_ratio", s.cfg.Name),
			"Fraction of requests missing the SLO objective per window.", lbl).Set(w.BadFraction)
	}
	fast := 0.0
	if st.FastBurn {
		fast = 1
	}
	reg.Gauge(fmt.Sprintf("megh_slo_%s_fast_burn", s.cfg.Name),
		"1 when every burn-rate window is at or above the fast-burn threshold.", nil).Set(fast)
}
