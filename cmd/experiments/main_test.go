package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"megh/internal/experiments"
)

func TestUnknownNameListsTheRegistry(t *testing.T) {
	err := run([]string{"-run", "fig9"}, io.Discard)
	if err == nil {
		t.Fatal("-run fig9 succeeded")
	}
	for _, e := range experiments.Experiments() {
		if !strings.Contains(err.Error(), e.Name) {
			t.Errorf("error %q does not list %s", err, e.Name)
		}
	}
}

// TestCheckAllRefusesStrayFiles: -run all -check fails on a file in -out
// that no entry writes, before running any experiment.
func TestCheckAllRefusesStrayFiles(t *testing.T) {
	dir := t.TempDir()
	for _, f := range []string{"README.md", "fig4.csv", "fig2.svg"} {
		if err := os.WriteFile(filepath.Join(dir, f), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	err := run([]string{"-run", "all", "-check", "-out", dir}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "fig2.svg") {
		t.Fatalf("run = %v, want an error naming fig2.svg", err)
	}
	if strings.Contains(err.Error(), "README.md") || strings.Contains(err.Error(), "fig4.csv") {
		t.Fatalf("run = %v, flags a file the registry accounts for", err)
	}
}

func TestCheckNamesTheMissingFile(t *testing.T) {
	err := run([]string{"-run", "fig1b", "-check", "-out", t.TempDir()}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "fig1b.csv") {
		t.Fatalf("run = %v, want an error naming fig1b.csv", err)
	}
}

func TestWriteThenCheck(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-run", "fig1b", "-out", dir}, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-run", "fig1b", "-check", "-out", dir}, io.Discard); err != nil {
		t.Fatalf("a file just written does not check: %v", err)
	}
	path := filepath.Join(dir, "fig1b.csv")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitN(string(b), "\n", 3)
	lines[1] = "10.0,15.8,1" // one simulated cell changed
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"-run", "fig1b", "-check", "-out", dir}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "fig1b.csv: row 1, column tasks") {
		t.Fatalf("run = %v, want the changed cell named", err)
	}
}
