package sparse

import (
	"math"
	"math/rand"
	"testing"
)

// The scaled kernel at scale 1 must be *bitwise* the unscaled kernel: the
// exact-mode learner path goes through ShermanMorrisonBasisScaled with
// scale = 1.0, and multiplying by exactly 1.0 is an IEEE-754 identity, so
// historical byte-identical traces and checkpoints must be preserved.
func TestShermanMorrisonBasisScaledOneIsBitwiseUnscaled(t *testing.T) {
	const dim = 16
	const gamma = 0.9
	for _, tol := range []float64{0, 1e-7} {
		r := rand.New(rand.NewSource(7))
		ms := randomSeedMatrix(rand.New(rand.NewSource(3)), dim, 1.0/dim, tol, false)
		mu := randomSeedMatrix(rand.New(rand.NewSource(3)), dim, 1.0/dim, tol, true)
		for it := 0; it < 300; it++ {
			a, b := r.Intn(dim), r.Intn(dim)
			if it%17 == 0 {
				b = a
			}
			ds, es := ms.ShermanMorrisonBasisScaled(a, b, gamma, 1)
			du, eu := mu.ShermanMorrisonBasis(a, b, gamma)
			if (es == nil) != (eu == nil) {
				t.Fatalf("tol %g it %d: error mismatch %v vs %v", tol, it, es, eu)
			}
			if ds != du {
				t.Fatalf("tol %g it %d: denominator %v vs %v", tol, it, ds, du)
			}
			sD, uD := ms.Dense(), mu.Dense()
			for i := range sD {
				for j := range sD[i] {
					if sD[i][j] != uD[i][j] {
						t.Fatalf("tol %g it %d: (%d,%d) scaled %v unscaled %v",
							tol, it, i, j, sD[i][j], uD[i][j])
					}
				}
			}
		}
		checkMatrixInvariants(t, ms)
		checkMatrixInvariants(t, mu)
	}
}

// The scaled kernel must agree with the generic Sherman–Morrison path fed
// the equivalent scaled direction v = n·(e_a − γ·e_b) across random
// multiplicities, self-transitions included: identical error decisions,
// denominators and entries within a tight tolerance (the two paths
// associate the scale multiplications differently, so exact bitwise
// equality only holds at n = 1 — pinned separately above — and the
// ulp-level differences compound as the sequences evolve).
func TestShermanMorrisonBasisScaledMatchesGeneric(t *testing.T) {
	const dim = 16
	const gamma = 0.9
	for _, tol := range []float64{0, 1e-7} {
		r := rand.New(rand.NewSource(11))
		mk := randomSeedMatrix(rand.New(rand.NewSource(5)), dim, 1.0/dim, tol, false)
		mg := randomSeedMatrix(rand.New(rand.NewSource(5)), dim, 1.0/dim, tol, true)
		for it := 0; it < 300; it++ {
			a, b := r.Intn(dim), r.Intn(dim)
			if it%17 == 0 {
				b = a
			}
			n := float64(1 + r.Intn(64))
			u := Basis(dim, a)
			v := Basis(dim, a)
			v.Scale(n)
			v.Add(b, -n*gamma)
			dk, ek := mk.ShermanMorrisonBasisScaled(a, b, gamma, n)
			dg, eg := mg.ShermanMorrison(u, v)
			if (ek == nil) != (eg == nil) {
				t.Fatalf("tol %g it %d: error mismatch %v vs %v", tol, it, ek, eg)
			}
			if math.Abs(dk-dg) > 1e-9*math.Max(1, math.Abs(dg)) {
				t.Fatalf("tol %g it %d: denominator %v vs %v", tol, it, dk, dg)
			}
			kD, gD := mk.Dense(), mg.Dense()
			for i := range kD {
				for j := range kD[i] {
					rel := math.Max(1, math.Abs(gD[i][j]))
					if math.Abs(kD[i][j]-gD[i][j]) > 1e-9*rel {
						t.Fatalf("tol %g it %d n %g: (%d,%d) kernel %v generic %v",
							tol, it, n, i, j, kD[i][j], gD[i][j])
					}
				}
			}
		}
		checkMatrixInvariants(t, mk)
		checkMatrixInvariants(t, mg)
	}
}

// One scale-n update is the amortisation of n identical transitions: it
// must land (numerically) where n sequential unscaled updates land, and
// both must track the dense Gauss–Jordan inverse of the accumulated T.
func TestShermanMorrisonBasisScaledMatchesRepeated(t *testing.T) {
	const dim = 10
	const gamma = 0.5
	r := rand.New(rand.NewSource(29))
	delta := float64(dim)
	merged := NewMatrix(dim, 1/delta)
	repeated := NewMatrix(dim, 1/delta)
	oracle := newDenseOracle(dim, delta)
	for step := 0; step < 40; step++ {
		a := r.Intn(dim)
		b := r.Intn(dim)
		if step%11 == 0 {
			b = a
		}
		n := 1 + r.Intn(8)
		if _, err := merged.ShermanMorrisonBasisScaled(a, b, gamma, float64(n)); err != nil {
			t.Fatalf("step %d: merged: %v", step, err)
		}
		for i := 0; i < n; i++ {
			if _, err := repeated.ShermanMorrisonBasis(a, b, gamma); err != nil {
				t.Fatalf("step %d rep %d: %v", step, i, err)
			}
			u := Basis(dim, a)
			v := Basis(dim, a)
			v.Add(b, -gamma)
			oracle.update(u, v)
		}
		inv := oracle.inverse(t)
		for i := 0; i < dim; i++ {
			for j := 0; j < dim; j++ {
				if d := math.Abs(merged.Get(i, j) - repeated.Get(i, j)); d > 1e-9 {
					t.Fatalf("step %d: (%d,%d) merged %g vs repeated %g (|Δ| = %g)",
						step, i, j, merged.Get(i, j), repeated.Get(i, j), d)
				}
				if d := math.Abs(merged.Get(i, j) - inv.Get(i, j)); d > 1e-9 {
					t.Fatalf("step %d: B[%d,%d] = %g, dense inverse = %g (|Δ| = %g)",
						step, i, j, merged.Get(i, j), inv.Get(i, j), d)
				}
			}
		}
	}
	checkMatrixInvariants(t, merged)
	checkMatrixInvariants(t, repeated)
}

// Degenerate scales are programming errors, not recoverable states: the
// kernel must refuse them and leave the matrix untouched.
func TestShermanMorrisonBasisScaledRejectsBadScale(t *testing.T) {
	for _, scale := range []float64{0, math.NaN(), math.Inf(1), math.Inf(-1)} {
		m := NewMatrix(4, 0.25)
		before := m.Dense()
		if _, err := m.ShermanMorrisonBasisScaled(1, 2, 0.9, scale); err == nil {
			t.Fatalf("scale %v accepted", scale)
		}
		after := m.Dense()
		for i := range before {
			for j := range before[i] {
				if before[i][j] != after[i][j] {
					t.Fatalf("scale %v mutated the matrix at (%d,%d)", scale, i, j)
				}
			}
		}
	}
}
