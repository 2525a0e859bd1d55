//go:build !race

package experiments

import "testing"

// TestCommittedResultsReproduce re-runs every registry entry that takes
// seconds and Checks it against the committed results/ file. Tables 2–3,
// Figures 2–3 (the full 800 × 1 052 and 500 × 2 000 worlds) and Figure 6
// (wall-clock only) are left to make experiments-check.
func TestCommittedResultsReproduce(t *testing.T) {
	if testing.Short() {
		t.Skip("re-runs the committed experiments")
	}
	slow := map[string]bool{"table2": true, "table3": true, "fig2": true, "fig3": true, "fig6a": true, "fig6b": true}
	for _, e := range Experiments() {
		if slow[e.Name] {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			if err := e.Verify("../../results"); err != nil {
				t.Error(err)
			}
		})
	}
}
