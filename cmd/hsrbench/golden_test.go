package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The quick suite's stdout and the SHA-256 of each of its -csv files,
// recorded from a build before the experiments shared one render path.
// Regenerate both only for an intended output change:
//
//	go run ./cmd/hsrbench -quick -run all -csv /tmp/q > cmd/hsrbench/testdata/quick_all.golden
//	(cd /tmp/q && sha256sum *) > cmd/hsrbench/testdata/quick_all_csv.sha256
const (
	goldenStdout = "testdata/quick_all.golden"
	goldenCSV    = "testdata/quick_all_csv.sha256"
)

// readDigests parses a sha256sum listing into file name -> hex digest.
func readDigests(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			t.Fatalf("%s: malformed line %q", path, sc.Text())
		}
		out[fields[1]] = fields[0]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// firstDiff describes the first line where got and want differ.
func firstDiff(got, want []byte) string {
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("line count: got %d, want %d", len(g), len(w))
}

// TestQuickAllGolden pins `hsrbench -quick -run all` byte for byte — stdout
// and every CSV series — at one and at eight concurrent experiments.
func TestQuickAllGolden(t *testing.T) {
	want, err := os.ReadFile(goldenStdout)
	if err != nil {
		t.Fatal(err)
	}
	digests := readDigests(t, goldenCSV)
	for _, jobs := range []string{"1", "8"} {
		dir := t.TempDir()
		var out bytes.Buffer
		if err := run([]string{"-quick", "-run", "all", "-jobs", jobs, "-csv", dir}, &out); err != nil {
			t.Fatalf("-jobs %s: %v", jobs, err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("-jobs %s: stdout differs from %s at %s", jobs, goldenStdout, firstDiff(out.Bytes(), want))
		}
		files, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(files) != len(digests) {
			t.Errorf("-jobs %s: wrote %d CSV files, want %d", jobs, len(files), len(digests))
		}
		for name, digest := range digests {
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Errorf("-jobs %s: %v", jobs, err)
				continue
			}
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); got != digest {
				t.Errorf("-jobs %s: %s sha256 %s, want %s", jobs, name, got, digest)
			}
		}
	}
}
