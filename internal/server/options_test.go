package server

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestOptionsGolden pins the service's configuration surface the way
// TestRoutesGolden pins its HTTP surface: the exported fields of Config and
// ClusterConfig, name and type in declaration order, must match the
// committed options.golden, so an added, removed, renamed or retyped option
// shows up as an explicit diff in review. Regenerate deliberately with:
//
//	go test ./internal/server/ -run TestOptionsGolden -update
func TestOptionsGolden(t *testing.T) {
	var b strings.Builder
	for _, v := range []any{Config{}, ClusterConfig{}} {
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				fmt.Fprintf(&b, "%s.%s %s\n", typ.Name(), f.Name, f.Type)
			}
		}
	}
	got := b.String()

	const golden = "options.golden"
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
		t.Errorf("options changed — update %s (-update) and document the change:\n--- got ---\n%s--- want ---\n%s",
			golden, got, want)
	}
}
