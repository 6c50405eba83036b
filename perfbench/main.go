// Command perfbench is the repository's benchmark. It measures both
// clocks of the simulator: host cost (the wall time, memory and
// allocation needed to produce a result) and virtual time (what the
// simulated machine spends), on three closed-loop workloads run from
// one process:
//
//	fig10   the paper's IObench matrix, runs A-D x FSR/FSU/FSW/FRR/FRU
//	crash   faultlab power-cut round trips, plain and journaled
//	office  eight small-file users and a streamer on a RAID-5,
//	        journaled, adaptive-read-ahead, vectored-I/O machine
//
// Usage:
//
//	perfbench --workload fig10 --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured untraced;
// with --trace 1 it profiles the passes and prints the per-layer
// metrics. The last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics. --list prints every
// metric with its unit and, for per-layer metrics, the end-to-end
// metric and workload it should move.
//
// Seed 1 is the default. Seed 104729 is held out: do not tune on it, so
// that a claim can be re-checked on a seed unused while writing it.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"ufsclust/internal/sim"
)

const (
	defaultSeed = 1
	heldOutSeed = 104729
	// setupRuns is how many fresh processes set up one cold unit each;
	// setup_s is their median.
	setupRuns = 5
)

// sizes scales every workload; the self-test uses small ones.
type sizes struct {
	fig10MB        int
	crashMB        int
	crashFsync     int
	crashCuts      int
	officeFiles    int // files per user per session
	officeStreamMB int
}

var (
	fullSizes = sizes{fig10MB: 16, crashMB: 16, crashFsync: 1 << 20, crashCuts: 8, officeFiles: 200, officeStreamMB: 16}
	// The stream stays twice the page cache even when small: a streamer
	// served wholly from the cache never blocks, and sim.Resource lets a
	// process that never blocks re-take the CPU ahead of its waiters,
	// starving the users.
	smallSizes = sizes{fig10MB: 1, crashMB: 1, crashFsync: 128 << 10, crashCuts: 2, officeFiles: 12, officeStreamMB: 16}
)

type config struct {
	seed int64
	size sizes
	memo *memo
}

// memo holds what set-up computes once per process for the passes.
type memo struct {
	crashEnds [2]sim.Time // uncut crash workload durations, plain and journaled
}

type workload struct {
	name, why string
	pass      func(config, *pass) // one measured pass
	cold      func(config, *pass) // the unit set-up ends with
	probe     func(config, *pass) // extra spans, traced runs only; may be nil
}

var workloads = []workload{
	{"fig10", "the paper's IObench matrix on a file twice the page cache: the data path (sim, disk, vm, core, ufs) dominates",
		fig10Pass, fig10Cold, fig10Probe},
	{"crash", "power-cut round trips, plain and journaled: the boot, snapshot, repair and verify path (ufs, disk) dominates",
		crashPass, crashCold, crashProbe},
	{"office", "small-file users and a streamer on RAID-5 with journal, adaptive read-ahead and vec: only here vol, wal, prefetch and vec work",
		officePass, officePass, nil},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: fig10, crash or office")
	seed := fl.Int64("seed", defaultSeed, fmt.Sprintf("input seed (%d is held out for re-checking claims)", heldOutSeed))
	seconds := fl.Float64("seconds", 10, "measure passes for this many seconds")
	trace := fl.Int("trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics from a profiled run")
	small := fl.Bool("small", false, "small sizes, for the self-test")
	child := fl.Bool("setup-child", false, "set up one cold unit and exit (used to time set-up)")
	list := fl.Bool("list", false, "list the metrics and exit")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *list {
		listMetrics(stdout)
		return 0
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload fig10|crash|office, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	c := config{seed: *seed, size: fullSizes, memo: &memo{}}
	if *small {
		c.size = smallSizes
	}
	if *child {
		p := newPass()
		w.cold(c, p)
		if p.failed > 0 {
			fmt.Fprintln(stderr, p.firstFailure)
			return 1
		}
		return 0
	}
	r := &report{stderr: stderr}
	var err error
	if *trace == 0 {
		err = r.endToEnd(w, c, args, time.Duration(*seconds*float64(time.Second)))
	} else {
		err = r.perLayer(w, c, time.Duration(*seconds*float64(time.Second)))
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	r.print(stdout, w.name, c.seed)
	return 0
}

// report collects one run's results.
type report struct {
	stderr            io.Writer
	attempted, failed int
	digests           []uint64
	values            map[string]float64
	metrics           []metric
	passes            []*pass
}

func (r *report) add(p *pass) {
	r.attempted += p.units
	r.failed += p.failed
	if p.firstFailure != "" {
		fmt.Fprintf(r.stderr, "perfbench: unit failed: %s\n", p.firstFailure)
	}
}

// measure runs passes until the deadline (at least one), recording
// each pass's wall time and heap bytes allocated.
func (r *report) measure(w *workload, c config, d time.Duration) (walls, allocs []float64) {
	start := time.Now()
	for len(walls) == 0 || time.Since(start) < d {
		p := newPass()
		a0 := heapAllocs()
		t0 := time.Now()
		w.pass(c, p)
		walls = append(walls, time.Since(t0).Seconds())
		allocs = append(allocs, float64(heapAllocs()-a0)/(1<<20))
		r.add(p)
		r.passes = append(r.passes, p)
		r.digests = append(r.digests, p.digest.Sum64())
	}
	return walls, allocs
}

// endToEnd measures set-up in fresh processes, then untraced passes.
func (r *report) endToEnd(w *workload, c config, args []string, d time.Duration) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		cmd := exec.Command(self, append(append([]string(nil), args...), "--setup-child")...)
		cmd.Stderr = r.stderr
		t0 := time.Now()
		err := cmd.Run()
		setups = append(setups, time.Since(t0).Seconds())
		r.attempted++
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			r.failed++
		} else if err != nil {
			return fmt.Errorf("set-up process: %w", err)
		}
	}
	cold := newPass()
	w.cold(c, cold)
	r.add(cold)
	walls, allocs := r.measure(w, c, d)

	r.metrics = endToEnd
	r.values = r.passes[0].vtMetrics()
	r.values["wall_s"] = median(walls)
	r.values["setup_s"] = median(setups)
	r.values["alloc_mb"] = median(allocs)
	r.values["rss_peak_mb"] = peakRSSMB()
	return nil
}

// perLayer runs untraced passes for a third of the time, profiled
// passes for the rest, then the workload's probes, and folds the
// profiles by layer. Every figure is per profiled pass.
func (r *report) perLayer(w *workload, c config, d time.Duration) error {
	cold := newPass()
	w.cold(c, cold)
	r.add(cold)
	plain, _ := r.measure(w, c, d/3)
	nPlain := len(r.passes)

	heap0, err := heapProfile()
	if err != nil {
		return err
	}
	var cpuProf bytes.Buffer
	if err := pprof.StartCPUProfile(&cpuProf); err != nil {
		return err
	}
	cpu0 := cpuSeconds()
	traced, _ := r.measure(w, c, d-d/3)
	cpu1 := cpuSeconds()
	pprof.StopCPUProfile()
	heap1, err := heapProfile()
	if err != nil {
		return err
	}
	probe := newPass()
	if w.probe != nil {
		w.probe(c, probe)
	}
	r.add(probe)

	n := float64(len(traced))
	cpuBy, err := foldProfile(cpuProf.Bytes(), "cpu")
	if err != nil {
		return err
	}
	allocBefore, err := foldProfile(heap0, "alloc_space")
	if err != nil {
		return err
	}
	allocAfter, err := foldProfile(heap1, "alloc_space")
	if err != nil {
		return err
	}
	// The probes' exact counts (crash recovery reads) complete the
	// first traced pass's.
	first := r.passes[nPlain]
	for k, x := range probe.counts {
		first.counts[k] += x
	}
	v := first.layerCounts()
	var selfTotal, allocTotal float64
	for _, l := range layers {
		s := cpuBy[l] / 1e9 / n
		v["host."+l+"_s"] = s
		selfTotal += s
		if l != "gc" {
			mb := (allocAfter[l] - allocBefore[l]) / (1 << 20) / n
			v["alloc."+l+"_mb"] = mb
			allocTotal += mb
		}
	}
	v["host.self_total_s"] = selfTotal
	v["host.process_cpu_s"] = (cpu1 - cpu0) / n
	v["alloc.total_mb"] = allocTotal
	v["trace.overhead_s"] = median(traced) - median(plain)
	spans := map[string][]float64{}
	for _, p := range append([]*pass{probe}, r.passes[nPlain:]...) {
		for k, xs := range p.spans {
			spans[k] = append(spans[k], xs...)
		}
	}
	for _, m := range perLayer {
		if strings.HasPrefix(m.name, "span.") {
			v[m.name] = 0
			if xs := spans[strings.TrimSuffix(strings.TrimPrefix(m.name, "span."), "_ms")]; len(xs) > 0 {
				v[m.name] = median(xs)
			}
		}
	}
	r.metrics = perLayer
	r.values = v
	return nil
}

// print writes the human-readable lines and then the JSON result line.
func (r *report) print(out io.Writer, name string, seed int64) {
	deterministic := true
	for _, d := range r.digests {
		deterministic = deterministic && d == r.digests[0]
	}
	if !deterministic {
		fmt.Fprintln(r.stderr, "perfbench: passes of one seed disagree on virtual-time results")
	}
	fmt.Fprintf(out, "workload %s seed %d passes %d attempted %d failed %d\n", name, seed, len(r.passes), r.attempted, r.failed)
	fmt.Fprintf(out, "vt_digest %s %016x\n", name, r.digests[0])
	fmt.Fprintf(out, "%-30s %14.6f %s\n", "fail_ratio", ratio(float64(r.failed), float64(r.attempted)), "ratio")
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	for _, m := range r.metrics {
		fmt.Fprintf(out, "%-30s %14.6f %s\n", m.name, r.values[m.name], m.unit)
		ms[m.name] = value{r.values[m.name], m.unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0 && deterministic, r.attempted, r.failed, ms})
	fmt.Fprintf(out, "%s\n", line)
}

func listMetrics(out io.Writer) {
	for _, w := range workloads {
		fmt.Fprintf(out, "workload %-8s %s\n", w.name, w.why)
	}
	for _, m := range endToEnd {
		fmt.Fprintf(out, "end_to_end %-28s %-6s %-6s bound %g\n", m.name, m.unit, m.better, m.bound)
	}
	for _, m := range perLayer {
		fmt.Fprintf(out, "per_layer  %-28s %-6s %-6s moves %s\n", m.name, m.unit, m.better, m.moves)
	}
}

func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapProfile returns the heap profile as of a fresh GC, so its
// cumulative alloc_space totals are up to date.
func heapProfile() ([]byte, error) {
	runtime.GC()
	var b bytes.Buffer
	if err := pprof.Lookup("heap").WriteTo(&b, 0); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return ru
}

func cpuSeconds() float64 {
	ru := rusage()
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMB is the process's peak resident set; Linux reports KB.
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }
