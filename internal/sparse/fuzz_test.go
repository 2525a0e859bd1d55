package sparse

import (
	"math"
	"testing"
)

// FuzzShermanMorrisonBasis decodes fuzz bytes into a Megh-shaped update
// sequence — dimension, γ, then (a,b) transition pairs — and drives it
// through three implementations at once with the drop tolerance off:
//
//   - the structure-exploiting kernel (ShermanMorrisonBasis),
//   - the generic Sherman–Morrison reference (bitwise agreement required,
//     including on which updates are rejected as singular),
//   - a dense T accumulation, against which ‖B·T − I‖∞ must stay tiny.
//
// Every applied update adds 1 to T[a][a] and γ < 1 off the diagonal, so T
// stays strictly row diagonally dominant and the dense oracle is always
// well-posed, no matter what sequence the fuzzer invents.
func FuzzShermanMorrisonBasis(f *testing.F) {
	f.Add([]byte{6, 50, 0, 1, 1, 2, 2, 0, 3, 3})
	f.Add([]byte{2, 99, 0, 0, 1, 1, 0, 1, 1, 0})
	f.Add([]byte{8, 0, 7, 3})
	f.Add([]byte{3, 90})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		dim := 2 + int(data[0])%7           // 2..8: small enough for the O(d³) oracle
		gamma := float64(data[1]%100) / 100 // 0.00..0.99, strictly below 1
		ops := data[2:]
		if len(ops) > 128 {
			ops = ops[:128] // ≤ 64 updates per input keeps execs fast
		}

		delta := float64(dim)
		// The kernel runs on pages allocated on touch, the reference on
		// pages carved up front: agreement covers both sides of the budget.
		kernel := newMatrix(dim, 1/delta, false)
		generic := newMatrix(dim, 1/delta, true)
		oracle := newDenseOracle(dim, delta)
		applied := 0
		minDen := math.Inf(1)

		for p := 0; p+1 < len(ops); p += 2 {
			a, b := int(ops[p])%dim, int(ops[p+1])%dim
			u := Basis(dim, a)
			v := Basis(dim, a)
			v.Add(b, -gamma)
			dk, ek := kernel.ShermanMorrisonBasis(a, b, gamma)
			dg, eg := generic.ShermanMorrison(u, v)
			if (ek == nil) != (eg == nil) {
				t.Fatalf("op %d (a=%d b=%d γ=%g): kernel err %v, generic err %v", p/2, a, b, gamma, ek, eg)
			}
			if dk != dg {
				t.Fatalf("op %d (a=%d b=%d γ=%g): denominator %v vs %v", p/2, a, b, gamma, dk, dg)
			}
			if ek != nil {
				continue // both rejected; both matrices must be unchanged, checked below
			}
			oracle.update(u, v)
			applied++
			if d := math.Abs(dk); d < minDen {
				minDen = d
			}
			if kernel.NNZ() != generic.NNZ() {
				t.Fatalf("op %d: NNZ %d vs %d", p/2, kernel.NNZ(), generic.NNZ())
			}
		}

		kd, gd := kernel.Dense(), generic.Dense()
		for i := range kd {
			for j := range kd[i] {
				if kd[i][j] != gd[i][j] {
					t.Fatalf("B[%d,%d]: kernel %v, generic %v", i, j, kd[i][j], gd[i][j])
				}
			}
		}
		checkMatrixInvariants(t, kernel)
		checkMatrixInvariants(t, generic)

		// Dense oracle: only meaningful when no update came close to the
		// singularity threshold — a tiny denominator legitimately amplifies
		// rounding error beyond any fixed residual bound.
		if applied == 0 || minDen < 1e-3 {
			return
		}
		var norm float64
		for i := 0; i < dim; i++ {
			var row float64
			for j := 0; j < dim; j++ {
				var prod float64
				for k := 0; k < dim; k++ {
					prod += kd[i][k] * oracle.T.Get(k, j)
				}
				if i == j {
					prod -= 1
				}
				row += math.Abs(prod)
			}
			if row > norm {
				norm = row
			}
		}
		if norm > 1e-6 || math.IsNaN(norm) {
			t.Fatalf("‖B·T − I‖∞ = %g after %d applied updates (dim %d, γ %g)", norm, applied, dim, gamma)
		}
	})
}
