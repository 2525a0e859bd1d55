package sparse

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewVectorPanicsOnNegativeDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative dimension")
		}
	}()
	NewVector(-1)
}

func TestVectorSetGet(t *testing.T) {
	v := NewVector(10)
	if got := v.Get(3); got != 0 {
		t.Fatalf("fresh vector Get(3) = %g, want 0", got)
	}
	v.Set(3, 2.5)
	if got := v.Get(3); got != 2.5 {
		t.Fatalf("Get(3) = %g, want 2.5", got)
	}
	if got := v.NNZ(); got != 1 {
		t.Fatalf("NNZ = %d, want 1", got)
	}
	v.Set(3, 0)
	if got := v.NNZ(); got != 0 {
		t.Fatalf("NNZ after zeroing = %d, want 0", got)
	}
}

func TestVectorOutOfRangePanics(t *testing.T) {
	cases := []func(*Vector){
		func(v *Vector) { v.Get(10) },
		func(v *Vector) { v.Get(-1) },
		func(v *Vector) { v.Set(10, 1) },
		func(v *Vector) { v.Add(-1, 1) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected out-of-range panic", i)
				}
			}()
			f(NewVector(10))
		}()
	}
}

func TestVectorAddRemovesExactZero(t *testing.T) {
	v := NewVector(4)
	v.Add(2, 1.5)
	v.Add(2, -1.5)
	if v.NNZ() != 0 {
		t.Fatalf("NNZ = %d after cancelling adds, want 0", v.NNZ())
	}
}

func TestBasis(t *testing.T) {
	e := Basis(5, 2)
	want := []float64{0, 0, 1, 0, 0}
	if got := e.Dense(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Basis(5,2) = %v, want %v", got, want)
	}
}

func TestVectorDot(t *testing.T) {
	v := NewVector(6)
	u := NewVector(6)
	v.Set(0, 1)
	v.Set(3, 2)
	u.Set(3, 4)
	u.Set(5, 7)
	if got := v.Dot(u); got != 8 {
		t.Fatalf("Dot = %g, want 8", got)
	}
	if got := u.Dot(v); got != 8 {
		t.Fatalf("Dot not symmetric: %g", got)
	}
}

func TestVectorDotDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected dimension-mismatch panic")
		}
	}()
	NewVector(3).Dot(NewVector(4))
}

func TestVectorScale(t *testing.T) {
	v := NewVector(3)
	v.Set(0, 2)
	v.Set(2, -4)
	v.Scale(0.5)
	want := []float64{1, 0, -2}
	if got := v.Dense(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Scale result = %v, want %v", got, want)
	}
	v.Scale(0)
	if v.NNZ() != 0 {
		t.Fatalf("Scale(0) left %d non-zeros", v.NNZ())
	}
}

func TestVectorRangeEarlyStop(t *testing.T) {
	v := NewVector(10)
	for i := 0; i < 10; i++ {
		v.Set(i, 1)
	}
	n := 0
	v.Range(func(int, float64) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("Range visited %d entries after early stop, want 3", n)
	}
}

// randomVector draws a sparse vector of dimension dim with roughly k
// non-zeros in [-1, 1].
func randomVector(r *rand.Rand, dim, k int) *Vector {
	v := NewVector(dim)
	for i := 0; i < k; i++ {
		v.Set(r.Intn(dim), r.Float64()*2-1)
	}
	return v
}

// Property: Dense round-trips Set/Get.
func TestQuickDenseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		const dim = 16
		v := randomVector(rr, dim, 8)
		d := v.Dense()
		for i := 0; i < dim; i++ {
			if d[i] != v.Get(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkVectorDot(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	v := randomVector(r, 1<<16, 256)
	u := randomVector(r, 1<<16, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = v.Dot(u)
	}
}
