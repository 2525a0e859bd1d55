package experiments

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"megh/internal/sim"
)

func TestCheck(t *testing.T) {
	const want = "policy,total_cost_usd,migrations,exec_ms\n" +
		"THR-MMT,10.5000,7,4.1000\n" +
		"Megh,9.2500,2,0.0200\n"
	for _, tc := range []struct {
		name, got string
		errHas    []string // empty: Check must pass
	}{
		{"identical", want, nil},
		{"exec_ms differs", strings.Replace(want, "0.0200", "0.0310", 1), nil},
		{"simulated cell differs", strings.Replace(want, "9.2500", "9.2600", 1),
			[]string{"row 2", "column total_cost_usd", "want 9.2500", "got 9.2600", "1 cells differ"}},
		{"extra row", want + "MadVM,11.0000,3,0.5000\n", []string{"want 2 rows, got 3"}},
		{"renamed header", strings.Replace(want, "migrations", "moves", 1), []string{"header"}},
		{"ragged row", strings.Replace(want, "Megh,9.2500", "Megh,9.2500,x", 1), []string{"row 2"}},
		{"empty", "", []string{"header"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := Check([]byte(want), []byte(tc.got))
			if len(tc.errHas) == 0 {
				if err != nil {
					t.Fatalf("Check = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatal("Check passed, want an error")
			}
			for _, s := range tc.errHas {
				if !strings.Contains(err.Error(), s) {
					t.Errorf("error %q does not mention %q", err, s)
				}
			}
		})
	}
}

func TestVerifyNamesFileAndCell(t *testing.T) {
	dir := t.TempDir()
	e := Experiment{Name: "toy", Run: func(w io.Writer) error {
		_, err := io.WriteString(w, "step,Megh_cost,Megh_exec_ms\n0,1.5,0.2\n")
		return err
	}}
	if err := e.Verify(dir); err == nil || !strings.Contains(err.Error(), "toy.csv") {
		t.Fatalf("Verify against a missing file = %v, want an error naming toy.csv", err)
	}
	write := func(s string) {
		if err := os.WriteFile(filepath.Join(dir, "toy.csv"), []byte(s), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("step,Megh_cost,Megh_exec_ms\n0,1.5,9.9\n")
	if err := e.Verify(dir); err != nil {
		t.Fatalf("Verify with only a wall-clock cell changed = %v", err)
	}
	write("step,Megh_cost,Megh_exec_ms\n0,1.4,0.2\n")
	err := e.Verify(dir)
	if err == nil || !strings.Contains(err.Error(), "toy.csv: row 1, column Megh_cost: want 1.4, got 1.5") {
		t.Fatalf("Verify = %v, want the file, row, column and both values", err)
	}
}

func TestRegistryNamesAreUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments() {
		if seen[e.Name] || e.Run == nil {
			t.Fatalf("entry %q is duplicated or has no Run", e.Name)
		}
		seen[e.Name] = true
	}
	if len(seen) != 21 {
		t.Fatalf("registry has %d entries, want the 21 results/ files", len(seen))
	}
}

// TestWriteSeriesCSVDefaultOrderIsSorted: with no order the columns are the
// sorted policy names, the same on every call.
func TestWriteSeriesCSVDefaultOrderIsSorted(t *testing.T) {
	set := SeriesSet{}
	for _, name := range []string{"THR-MMT", "Megh", "MadVM"} {
		set[name] = &sim.Result{Policy: name, Steps: []sim.StepMetrics{{EnergyCost: 1, Migrations: 2, ActiveHosts: 3}}}
	}
	var first []byte
	for i := 0; i < 20; i++ {
		var b bytes.Buffer
		if err := WriteSeriesCSV(&b, set, nil); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = b.Bytes()
		} else if !bytes.Equal(b.Bytes(), first) {
			t.Fatalf("call %d wrote\n%s\nthe first wrote\n%s", i, b.Bytes(), first)
		}
	}
	var policies []string
	for _, col := range strings.Split(strings.SplitN(string(first), "\n", 2)[0], ",") {
		if name, ok := strings.CutSuffix(col, "_cost"); ok {
			policies = append(policies, name)
		}
	}
	if len(policies) != 3 || !sort.StringsAreSorted(policies) {
		t.Fatalf("header policies %v, want the three names sorted", policies)
	}
}
