package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestReportMatchesCommitted runs the matrix table and requires its
// output to equal the committed BENCH_iobench.json byte for byte, so
// the committed file is always this tool's own output. After a change
// that moves a cell on purpose, regenerate it with
// `go run ./cmd/iobench -matrix BENCH_iobench.json` (scripts/bench.sh
// does the same).
func TestReportMatchesCommitted(t *testing.T) {
	got, err := report(2)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("..", "..", "BENCH_iobench.json")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("report diverges from %s at line %d:\n  got:  %s\n  want: %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("report length differs from %s: got %d lines, want %d", path, len(gl), len(wl))
}
