package iobench

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"ufsclust"
	"ufsclust/internal/vol"
)

// TestVolumePassthroughMatchesGoldens proves the volume layer's
// identity composition: the 1 MB FSW run-A cell on a one-member concat
// volume must replay the bare-disk golden fixtures — the scheduler
// trace and the JSONL event stream — byte for byte. The volume adds no
// simulation processes, no events, no labels, and no translation for a
// single member, so if this test fails the layer has leaked into the
// machine's behaviour and every pre-volume measurement is suspect.
//
// There is deliberately no -update flag here: the fixtures belong to
// the bare-disk tests, and this test only ever consumes them.
func TestVolumePassthroughMatchesGoldens(t *testing.T) {
	var tw, ew bytes.Buffer
	prm := Params{
		FileMB:    1,
		RandomOps: 16,
		TraceW:    &tw,
		EventW:    &ew,
		Machine: func() []ufsclust.Option {
			return []ufsclust.Option{ufsclust.WithVolume(vol.Config{Level: vol.Concat, Members: 1})}
		},
	}
	if _, _, err := RunMeasured(ufsclust.RunA(), FSW, prm); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		golden string
		got    []byte
	}{
		{"trace", "trace_fsw_runA.golden", tw.Bytes()},
		{"events", "events_fsw_runA.golden", ew.Bytes()},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", c.golden))
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(c.got, want) {
			continue
		}
		gl := bytes.Split(c.got, []byte("\n"))
		wl := bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("%s: 1-member concat diverges from the bare-disk golden at line %d:\n  got:  %q\n  want: %q",
					c.name, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: length differs from golden: got %d lines, want %d", c.name, len(gl), len(wl))
	}
}
