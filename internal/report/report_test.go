package report

import (
	"strings"
	"testing"
)

func TestBoxplotStrips(t *testing.T) {
	var b strings.Builder
	rows := []BoxplotRow{
		{Label: "0.5", P05: 1, Q1: 2, Median: 3, Q3: 4, P95: 5},
		{Label: "3", P05: 2, Q1: 3, Median: 4, Q3: 5, P95: 6},
	}
	if err := BoxplotStrips(&b, "temps", rows, 30); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if strings.Count(out, "|") != 2 {
		t.Fatalf("want one median mark per row:\n%s", out)
	}
	if !strings.Contains(out, "#") || !strings.Contains(out, "-") {
		t.Fatal("box/whisker glyphs missing")
	}
}

func TestBoxplotStripsValidation(t *testing.T) {
	var b strings.Builder
	if err := BoxplotStrips(&b, "", nil, 30); err == nil {
		t.Fatal("no rows should error")
	}
	bad := []BoxplotRow{{Label: "x", P05: 5, Q1: 4, Median: 3, Q3: 2, P95: 1}}
	if err := BoxplotStrips(&b, "", bad, 30); err == nil {
		t.Fatal("unordered boxplot should error")
	}
	flat := []BoxplotRow{{Label: "x", P05: 2, Q1: 2, Median: 2, Q3: 2, P95: 2}}
	if err := BoxplotStrips(&b, "", flat, 30); err != nil {
		t.Fatalf("degenerate boxplot must render: %v", err)
	}
}
