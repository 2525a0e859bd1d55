// Package report renders Figure 8's sensitivity boxplots as plain-text
// strips, so a reproduction can be eyeballed without leaving the shell
// (examples/sensitivity).
package report

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// BoxplotRow is one labelled boxplot: a Figure-8 parameter value.
type BoxplotRow struct {
	Label                    string
	P05, Q1, Median, Q3, P95 float64
}

// BoxplotStrips renders one [p05 ── box ── p95] strip per row, scaled to
// the global range — the Figure-8 panels.
func BoxplotStrips(w io.Writer, title string, rows []BoxplotRow, width int) error {
	if len(rows) == 0 {
		return fmt.Errorf("report: no boxplots to draw")
	}
	if width < 10 {
		return fmt.Errorf("report: strip width %d too small", width)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, r := range rows {
		if !(r.P05 <= r.Q1 && r.Q1 <= r.Median && r.Median <= r.Q3 && r.Q3 <= r.P95) {
			return fmt.Errorf("report: boxplot %q is not ordered", r.Label)
		}
		lo = math.Min(lo, r.P05)
		hi = math.Max(hi, r.P95)
	}
	if hi == lo {
		hi = lo + 1
	}
	scale := func(v float64) int {
		x := int((v - lo) / (hi - lo) * float64(width-1))
		if x < 0 {
			x = 0
		}
		if x >= width {
			x = width - 1
		}
		return x
	}
	if title != "" {
		if _, err := fmt.Fprintln(w, title); err != nil {
			return err
		}
	}
	for _, r := range rows {
		line := []byte(strings.Repeat(" ", width))
		for x := scale(r.P05); x <= scale(r.P95); x++ {
			line[x] = '-'
		}
		for x := scale(r.Q1); x <= scale(r.Q3); x++ {
			line[x] = '#'
		}
		line[scale(r.Median)] = '|'
		if _, err := fmt.Fprintf(w, "  %10s  %s  median %.4g\n", r.Label, string(line), r.Median); err != nil {
			return err
		}
	}
	return nil
}
