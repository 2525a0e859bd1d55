package power

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestTable1ExactValues pins the embedded tables to the paper's Table 1.
func TestTable1ExactValues(t *testing.T) {
	g4 := HPProLiantG4()
	g5 := HPProLiantG5()
	wantG4 := []float64{86, 89.4, 92.6, 96, 99.5, 102, 106, 108, 112, 114, 117}
	wantG5 := []float64{93.7, 97, 101, 105, 110, 116, 121, 125, 129, 133, 135}
	for k := 0; k <= 10; k++ {
		u := float64(k) / 10
		if got := g4.Power(u); got != wantG4[k] {
			t.Errorf("G4 at %d%%: %g, want %g", k*10, got, wantG4[k])
		}
		if got := g5.Power(u); got != wantG5[k] {
			t.Errorf("G5 at %d%%: %g, want %g", k*10, got, wantG5[k])
		}
	}
}

func TestTableInterpolation(t *testing.T) {
	g4 := HPProLiantG4()
	// Midway between 0% (86W) and 10% (89.4W).
	if got, want := g4.Power(0.05), 87.7; math.Abs(got-want) > 1e-9 {
		t.Fatalf("G4 at 5%% = %g, want %g", got, want)
	}
}

func TestTableClamping(t *testing.T) {
	g5 := HPProLiantG5()
	if got := g5.Power(-0.2); got != 93.7 {
		t.Fatalf("negative utilization = %g, want idle 93.7", got)
	}
	if got := g5.Power(1.7); got != 135 {
		t.Fatalf("overload utilization = %g, want max 135", got)
	}
}

func TestTableIdleMax(t *testing.T) {
	g4 := HPProLiantG4()
	if g4.Power(0) != 86 || g4.Power(1) != 117 {
		t.Fatalf("G4 idle/max = %g/%g", g4.Power(0), g4.Power(1))
	}
}

func TestNewTableRejectsNegative(t *testing.T) {
	var w [11]float64
	w[3] = -1
	if _, err := NewTable("bad", w); err == nil {
		t.Fatal("expected error for negative sample")
	}
}

func TestTableName(t *testing.T) {
	if HPProLiantG4().Name() != "HP ProLiant ML110 G4" {
		t.Fatal("unexpected G4 name")
	}
}

func TestLinearModel(t *testing.T) {
	l, err := NewLinear("lin", 100, 200)
	if err != nil {
		t.Fatal(err)
	}
	if l.Power(0) != 100 || l.Power(1) != 200 || l.Power(0.5) != 150 {
		t.Fatalf("linear powers: %g %g %g", l.Power(0), l.Power(1), l.Power(0.5))
	}
	if l.Power(-1) != 100 || l.Power(2) != 200 {
		t.Fatal("linear model should clamp")
	}
	if l.Name() != "lin" {
		t.Fatal("name mismatch")
	}
}

func TestLinearRejectsInvalid(t *testing.T) {
	if _, err := NewLinear("bad", 200, 100); err == nil {
		t.Fatal("expected error for max < idle")
	}
	if _, err := NewLinear("bad", -1, 100); err == nil {
		t.Fatal("expected error for negative idle")
	}
}

// Property: all models are monotone non-decreasing in utilization and
// bounded by [idle, max].
func TestQuickModelsMonotone(t *testing.T) {
	lin, _ := NewLinear("lin", 90, 140)
	models := []Model{HPProLiantG4(), HPProLiantG5(), lin}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		u1 := r.Float64()
		u2 := r.Float64()
		if u1 > u2 {
			u1, u2 = u2, u1
		}
		for _, m := range models {
			p1, p2 := m.Power(u1), m.Power(u2)
			if p1 > p2+1e-9 {
				return false
			}
			if p1 < m.Power(0)-1e-9 || p2 > m.Power(1)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTablePower(b *testing.B) {
	g4 := HPProLiantG4()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = g4.Power(float64(i%100) / 100)
	}
}
