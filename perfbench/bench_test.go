package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"ufsclust/internal/fault"
	"ufsclust/internal/faultlab"
)

// TestMain lets the test binary stand in for the benchmark binary when
// a run spawns its set-up processes.
func TestMain(m *testing.M) {
	for _, a := range os.Args[1:] {
		if a == "--setup-child" {
			os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
		}
	}
	os.Exit(m.Run())
}

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runSmall runs one workload at small sizes and returns its output
// lines and parsed result.
func runSmall(t *testing.T, workload string, trace int) ([]string, result) {
	t.Helper()
	var out, errOut bytes.Buffer
	args := []string{"--workload", workload, "--seed", "7", "--seconds", "0.01", "--trace", fmt.Sprint(trace), "--small"}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("%s trace %d: exit %d: %s", workload, trace, code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%s: last line is not the result: %v", workload, err)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Fatalf("%s trace %d: correct=%v attempted=%d failed=%d: %s", workload, trace, r.Correct, r.Attempted, r.Failed, errOut.String())
	}
	return lines, r
}

// TestEveryMetricPrinted checks that each workload prints every metric
// by name with its unit, on its own line and in the result.
func TestEveryMetricPrinted(t *testing.T) {
	for _, w := range workloads {
		for trace, ms := range [][]metric{endToEnd, perLayer} {
			lines, r := runSmall(t, w.name, trace)
			if len(r.Metrics) != len(ms) {
				t.Errorf("%s trace %d: %d metrics in the result, want %d", w.name, trace, len(r.Metrics), len(ms))
			}
			printed := map[string]string{}
			for _, l := range lines {
				if f := strings.Fields(l); len(f) == 3 {
					printed[f[0]] = f[2]
				}
			}
			if trace == 0 && printed["fail_ratio"] != "ratio" {
				t.Errorf("%s: fail_ratio not printed", w.name)
			}
			for _, m := range ms {
				if got, ok := r.Metrics[m.name]; !ok || got.Unit != m.unit {
					t.Errorf("%s: result has %s as %+v, want unit %s", w.name, m.name, got, m.unit)
				}
				if printed[m.name] != m.unit {
					t.Errorf("%s: printed %s with unit %q, want %q", w.name, m.name, printed[m.name], m.unit)
				}
			}
		}
	}
}

// TestSameSeedRepeats checks that two same-seed runs agree exactly on
// every virtual-time figure: the vt_* metrics, the exact per-layer
// counts and the digest.
func TestSameSeedRepeats(t *testing.T) {
	host := func(name string) bool {
		for _, p := range []string{"host.", "alloc.", "span.", "trace.", "wall_s", "setup_s", "alloc_mb", "rss_peak_mb"} {
			if strings.HasPrefix(name, p) {
				return true
			}
		}
		return false
	}
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			l1, r1 := runSmall(t, w.name, trace)
			l2, r2 := runSmall(t, w.name, trace)
			if l1[1] != l2[1] || !strings.HasPrefix(l1[1], "vt_digest ") {
				t.Errorf("%s: digests differ: %q vs %q", w.name, l1[1], l2[1])
			}
			for name, v := range r1.Metrics {
				if !host(name) && v != r2.Metrics[name] {
					t.Errorf("%s trace %d: %s is %v then %v", w.name, trace, name, v.Value, r2.Metrics[name].Value)
				}
			}
		}
	}
}

// TestCrashReferenceMatchesFaultlab checks that the crash workload's
// reference run is the run faultlab cuts: same duration, so cuts placed
// by it fall inside the workload.
func TestCrashReferenceMatchesFaultlab(t *testing.T) {
	c := config{seed: 7, size: smallSizes, memo: &memo{}}
	for _, journaled := range []bool{false, true} {
		p := newPass()
		end := crashReference(c, p, journaled, nil)
		st, err := faultlab.RunToCrash(crashWorkload(c, journaled), fault.Plan{})
		if err != nil {
			t.Fatal(err)
		}
		if p.failed != 0 || end != st.End {
			t.Errorf("%s: reference ran %v (%s), faultlab %v", kindName(journaled), end, p.firstFailure, st.End)
		}
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json declares exactly
// the workloads and metrics the benchmark reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Why, Unit, Better string
		Bound                   float64
	}
	var b struct {
		Workloads, EndToEnd, PerLayer []entry
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	if err := dec.Decode(&struct {
		Workloads *[]entry `json:"workloads"`
		EndToEnd  *[]entry `json:"end_to_end"`
		PerLayer  *[]entry `json:"per_layer"`
	}{&b.Workloads, &b.EndToEnd, &b.PerLayer}); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d run", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %+v, runs %s: %s", i, b.Workloads[i], w.name, w.why)
		}
	}
	for _, set := range []struct {
		declared []entry
		reported []metric
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(set.declared) != len(set.reported) {
			t.Fatalf("%d metrics declared, %d reported", len(set.declared), len(set.reported))
		}
		for i, m := range set.reported {
			d := set.declared[i]
			if d.Name != m.name || d.Unit != m.unit || d.Better != m.better || d.Bound != m.bound {
				t.Errorf("metric %d: declared %+v, reported %+v", i, d, m)
			}
		}
	}
}

// TestFoldStack pins the attribution rule: the innermost repository
// frame owns a sample, helper packages pass it to their caller, and
// stacks without repository frames go to the GC workers or the runtime.
func TestFoldStack(t *testing.T) {
	for _, tc := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "ufsclust/internal/core.(*Engine).push", "ufsclust/internal/sim.(*Sim).Run"}, "core"},
		{[]string{"ufsclust/internal/detsort.Keys", "ufsclust/internal/vm.(*VM).scan", "ufsclust.NewMachine"}, "vm"},
		{[]string{"ufsclust.NewMachine", "main.fig10Probe"}, "machine"},
		{[]string{"main.fill", "ufsclust/internal/sim.(*Sim).Spawn.func1"}, "bench"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.futex", "runtime.schedule"}, "runtime"},
	} {
		if got := foldStack(tc.frames); got != tc.want {
			t.Errorf("foldStack(%v) = %s, want %s", tc.frames, got, tc.want)
		}
	}
}
