package main

import (
	"strings"
	"testing"
)

func TestVersionFlag(t *testing.T) {
	if err := run([]string{"-version"}); err != nil {
		t.Fatalf("-version: %v", err)
	}
}

func TestBadFlag(t *testing.T) {
	if err := run([]string{"-no-such-flag"}); err == nil {
		t.Fatalf("bad flag accepted")
	}
}

func TestBadCacheDir(t *testing.T) {
	// A cache path under an existing file cannot be created.
	err := run([]string{"-cache", "main_test.go/nope", "-addr", "127.0.0.1:0"})
	if err == nil || !strings.Contains(err.Error(), "cache") {
		t.Fatalf("bad cache dir: %v", err)
	}
}

func TestBadLogLevel(t *testing.T) {
	err := run([]string{"-log-level", "loud", "-addr", "127.0.0.1:0"})
	if err == nil || !strings.Contains(err.Error(), "-log-level") {
		t.Fatalf("bad log level: %v", err)
	}
}
