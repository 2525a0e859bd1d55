package power

import "testing"

// mustTable backs the embedded Table-1 models, so its panic-on-bad-input
// contract is part of the package API surface.
func TestMustTablePanicsOnBadTable(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mustTable accepted a negative-wattage table")
		}
	}()
	mustTable("bad", [11]float64{-1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
}
