package server

import (
	"flag"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite routes.golden and options.golden from the live tables")

// TestRoutesGolden pins the service's HTTP surface: the sorted mux
// patterns must match the committed routes.golden file, so any API
// addition, removal, or rename shows up as an explicit diff in review.
// Regenerate deliberately with:
//
//	go test ./internal/server/ -run TestRoutesGolden -update
func TestRoutesGolden(t *testing.T) {
	svc, err := New(Config{NumVMs: 2, NumHosts: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(svc.Routes(), "\n") + "\n"

	const golden = "routes.golden"
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading %s (run with -update to create it): %v", golden, err)
	}
	if got != string(want) {
		t.Errorf("route table changed — update %s (-update) and document the change:\n--- got ---\n%s--- want ---\n%s",
			golden, got, want)
	}
}
