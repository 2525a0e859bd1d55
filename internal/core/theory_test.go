package core

import (
	"math"
	"testing"
)

// TestLSPIFixedPointRecurringAction validates the learner's value
// machinery against the theory (Theorem 2): if the policy keeps taking the
// same action a with constant per-stage cost c, the LSTD fixed point for
// that action is the discounted sum θ_a → c/(1−γ).
func TestLSPIFixedPointRecurringAction(t *testing.T) {
	cfg := DefaultConfig(2, 2, 1) // d = 4
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const (
		a = 1
		c = 0.8
	)
	want := c / (1 - cfg.Gamma) // 1.6 for γ = 0.5
	for i := 0; i < 20000; i++ {
		m.update(a, a, c)
	}
	if got := m.theta.At(a); math.Abs(got-want) > 0.01*want {
		t.Fatalf("θ_a = %g after 20k recurrences, want → %g = c/(1−γ)", got, want)
	}
	// Untouched actions stay at zero.
	for _, other := range []int{0, 2, 3} {
		if got := m.theta.At(other); got != 0 {
			t.Fatalf("θ[%d] = %g, want 0 (never visited)", other, got)
		}
	}
}

// TestLSPIFixedPointTwoActionCycle: alternating a→b→a→… with costs c_a and
// c_b has the coupled fixed point
//
//	θ_a = c_a + γ·θ_b,  θ_b = c_b + γ·θ_a
//	⇒ θ_a = (c_a + γ·c_b)/(1 − γ²).
func TestLSPIFixedPointTwoActionCycle(t *testing.T) {
	cfg := DefaultConfig(2, 3, 1) // d = 6
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const (
		a, b   = 0, 4
		ca, cb = 1.0, 0.2
	)
	g := cfg.Gamma
	wantA := (ca + g*cb) / (1 - g*g)
	wantB := (cb + g*ca) / (1 - g*g)
	for i := 0; i < 20000; i++ {
		m.update(a, b, ca)
		m.update(b, a, cb)
	}
	if got := m.theta.At(a); math.Abs(got-wantA) > 0.01*wantA {
		t.Fatalf("θ_a = %g, want → %g", got, wantA)
	}
	if got := m.theta.At(b); math.Abs(got-wantB) > 0.01*wantB {
		t.Fatalf("θ_b = %g, want → %g", got, wantB)
	}
}

// TestLSPIDiscountZeroIsMyopic: with γ = 0 the fixed point is the plain
// average cost of the action.
func TestLSPIDiscountZeroIsMyopic(t *testing.T) {
	cfg := DefaultConfig(2, 2, 1)
	cfg.Gamma = 0
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Alternate costs 0.4 and 0.8 → average 0.6.
	for i := 0; i < 10000; i++ {
		m.update(2, 2, 0.4)
		m.update(2, 2, 0.8)
	}
	if got := m.theta.At(2); math.Abs(got-0.6) > 0.01 {
		t.Fatalf("θ = %g with γ = 0, want the average cost 0.6", got)
	}
}

// TestLSPIValuesOrderActions: after equal exposure, the cheaper of two
// recurring actions must have the lower θ — the property Algorithm 2's
// Boltzmann selection relies on.
func TestLSPIValuesOrderActions(t *testing.T) {
	m, err := New(DefaultConfig(3, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	const cheap, dear = 1, 7
	for i := 0; i < 5000; i++ {
		m.update(cheap, cheap, 0.1)
		m.update(dear, dear, 0.9)
	}
	if !(m.theta.At(cheap) < m.theta.At(dear)) {
		t.Fatalf("θ_cheap = %g not below θ_dear = %g",
			m.theta.At(cheap), m.theta.At(dear))
	}
}
