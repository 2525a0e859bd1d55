package main

import (
	"flag"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/flags.golden from meghd -h")

// asMain makes the test binary run as meghd itself when set in its
// environment, so a test can drive main's flag parsing in a child process.
const asMain = "MEGHD_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMain) == "1" {
		// A fresh flag set holds meghd's flags alone, without the test
		// binary's own test.* and -update.
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestFlagsGolden pins meghd's command line: the sorted flag names that
// meghd -h lists must match the committed testdata/flags.golden, so an added
// or removed flag shows up as an explicit diff in review. Regenerate
// deliberately with:
//
//	go test ./cmd/meghd/ -run TestFlagsGolden -update
func TestFlagsGolden(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-h")
	cmd.Env = append(os.Environ(), asMain+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("meghd -h: %v\n%s", err, out)
	}
	var names []string
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(string(out), -1) {
		names = append(names, m[1])
	}
	sort.Strings(names)
	got := strings.Join(names, "\n") + "\n"

	const golden = "testdata/flags.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
		t.Errorf("meghd flags changed — update %s (-update) and document the change:\n--- got ---\n%s--- want ---\n%s",
			golden, got, want)
	}
}
