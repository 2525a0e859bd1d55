package main

import (
	"log/slog"
	"testing"
)

func TestParseLogLevel(t *testing.T) {
	for s, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo,
		"warn": slog.LevelWarn, "error": slog.LevelError,
	} {
		got, err := parseLogLevel(s)
		if err != nil || got != want {
			t.Errorf("parseLogLevel(%q) = %v, %v", s, got, err)
		}
	}
	for _, s := range []string{"loud", "warning", ""} {
		if _, err := parseLogLevel(s); err == nil {
			t.Errorf("parseLogLevel(%q): want an error", s)
		}
	}
}
