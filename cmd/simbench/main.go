// Command simbench measures the host-side performance of the simulation
// kernel on pinned workloads: events per host second, heap allocations
// per event, and host nanoseconds per simulated context switch. It is
// the perf harness behind `make bench`: scripts/bench.sh runs it and
// records the numbers in BENCH_sim.json, carrying the previous baseline
// forward so the kernel's host-performance trajectory is tracked across
// PRs.
//
// Every workload is fixed (fixed seed, fixed event count, fixed process
// population), so two runs on the same host measure the same work; the
// virtual-time behaviour of the kernel is pinned separately by the
// byte-identical-replay gates. This tool measures host cost only.
//
// Beside the kernel workloads it measures one offline recovery (ufs.Repair
// then ufs.Fsck on a fixed plain crash image) and the RAID-5 parity fold
// (offline read-modify-write of 32 KB chunks).
//
// Usage:
//
//	simbench [-events N] [-reps N] [-o file] [-baseline BENCH_sim.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"ufsclust"
	"ufsclust/internal/disk"
	"ufsclust/internal/fault"
	"ufsclust/internal/faultlab"
	"ufsclust/internal/prefetch"
	"ufsclust/internal/runner"
	"ufsclust/internal/sim"
	"ufsclust/internal/telemetry"
	"ufsclust/internal/ufs"
	"ufsclust/internal/vol"
)

// Metrics is the host cost of one pinned workload.
type Metrics struct {
	Events         int64   `json:"events"`
	HostNs         int64   `json:"host_ns"`
	EventsPerSec   float64 `json:"events_per_sec"`
	Allocs         uint64  `json:"allocs"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	NsPerSwitch    float64 `json:"ns_per_switch,omitempty"`
}

// Workloads is one full measurement pass.
type Workloads struct {
	// TimerStorm is the headline pinned workload for the events/sec and
	// allocs/event acceptance numbers: 64 self-rescheduling After
	// callbacks, no process switches, pure event-queue throughput.
	TimerStorm Metrics `json:"timer_storm"`
	// ContextSwitch: 4 processes in a Sleep(1us) round-robin; every
	// event is a full scheduler handoff, so NsPerSwitch is the cost of
	// parking one process and resuming the next.
	ContextSwitch Metrics `json:"context_switch"`
	// Pingpong: two processes alternating WaitQ wake/block, the
	// blocking-primitive path (WakeOne + Block) rather than the timer
	// path.
	Pingpong Metrics `json:"waitq_pingpong"`
	// ParallelScale: GOMAXPROCS independent timer-storm sims driven by
	// internal/runner; aggregate events/sec across all cores.
	ParallelScale Metrics `json:"parallel_scale"`
	// TelemetryEmit: Bus.Emit with no subscriber — the overhead every
	// instrumented hot path (disk serve, driver strategy) pays when
	// nobody is listening. The acceptance number is AllocsPerEvent = 0.
	TelemetryEmit Metrics `json:"telemetry_emit"`
	// ReadAhead: the adaptive prefetch policy's decision path — Trigger
	// calls with live Limits over 64 hot files, with periodic collapses
	// mixed in. Every clustered getpage that reaches the trigger point
	// pays this; the acceptance number is near-zero allocations per
	// decision once the per-file detectors exist.
	ReadAhead Metrics `json:"readahead"`
	// Recovery: offline repair of a plain crash image (absent from
	// reports that predate it).
	Recovery *Recovery `json:"recovery,omitempty"`
	// Parity: the RAID-5 read-modify-write fold (absent from reports
	// that predate it).
	Parity *Parity `json:"parity,omitempty"`
}

// Recovery is the host cost of one offline recovery of a plain crash
// image: the faultlab write cell (run A, 16 MB, fsync every MB, seed 42)
// cut at half its uncut duration, repaired with ufs.Repair and then
// checked with ufs.Fsck. SectorsRead counts every sector both read.
type Recovery struct {
	HostNs      int64  `json:"host_ns"`
	Allocs      uint64 `json:"allocs"`
	Bytes       uint64 `json:"bytes"`
	SectorsRead int64  `json:"sectors_read"`
}

// Parity is the host cost of the RAID-5 read-modify-write fold: offline
// partial-row writes (vol.Volume.WriteImage) of one 32 KB chunk each on
// the office machine's array — three members, 32 KB stripe unit — over
// rows already on the platter. Each write reads the old data and the
// old parity, folds old ⊕ new into the parity, and writes both back.
// MBPerSec counts chunk bytes folded per host second.
type Parity struct {
	Bytes      int64   `json:"bytes"`
	HostNs     int64   `json:"host_ns"`
	MBPerSec   float64 `json:"mb_per_sec"`
	Allocs     uint64  `json:"allocs"`
	AllocBytes uint64  `json:"alloc_bytes"`
}

// Report is the BENCH_sim.json schema.
type Report struct {
	Tool       string     `json:"tool"`
	GoVersion  string     `json:"go_version"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	EventTotal int64      `json:"event_total"`
	Current    Workloads  `json:"current"`
	Baseline   *Workloads `json:"baseline,omitempty"`
	Speedup    *Speedup   `json:"speedup,omitempty"`
	// RecoveryBaseline is the recovery workload as this tool measured
	// it on the tree before its last optimization (fastest of -reps,
	// like Current.Recovery); it is carried forward like Baseline.
	RecoveryBaseline *Recovery `json:"recovery_baseline,omitempty"`
	// ParityBaseline is the parity workload as this tool measured it on
	// the tree before the word-wide kernel; carried forward like
	// RecoveryBaseline.
	ParityBaseline *Parity `json:"parity_baseline,omitempty"`
}

// Speedup compares Current against Baseline (ratios > 1 mean the
// current kernel is better).
type Speedup struct {
	TimerStormEventsPerSec float64 `json:"timer_storm_events_per_sec"`
	TimerStormAllocsRatio  float64 `json:"timer_storm_allocs_per_event_old_over_new"`
	SwitchNsRatio          float64 `json:"context_switch_ns_old_over_new"`
	PingpongNsRatio        float64 `json:"waitq_pingpong_ns_old_over_new"`
	ParallelEventsPerSec   float64 `json:"parallel_scale_events_per_sec"`
	RecoveryHostNsRatio    float64 `json:"recovery_host_ns_old_over_new,omitempty"`
	RecoveryBytesRatio     float64 `json:"recovery_bytes_old_over_new,omitempty"`
	RecoverySectorsRatio   float64 `json:"recovery_sectors_old_over_new,omitempty"`
	ParityMBPerSec         float64 `json:"parity_mb_per_sec_new_over_old,omitempty"`
	ParityAllocBytesRatio  float64 `json:"parity_alloc_bytes_old_over_new,omitempty"`
}

func main() {
	events := flag.Int64("events", 1<<20, "events per workload")
	reps := flag.Int("reps", 3, "measurement repetitions (best time kept)")
	out := flag.String("o", "", "write JSON report to this file (default stdout)")
	baseline := flag.String("baseline", "", "prior BENCH_sim.json to carry forward as the baseline")
	flag.Parse()

	rep := Report{
		Tool:       "cmd/simbench",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		EventTotal: *events,
	}
	rep.Current.TimerStorm = measure(*reps, timerStorm(*events))
	rep.Current.ContextSwitch = withSwitch(measure(*reps, contextSwitch(*events)))
	rep.Current.Pingpong = withSwitch(measure(*reps, pingpong(*events)))
	rep.Current.ParallelScale = measure(*reps, parallelScale(*events))
	rep.Current.TelemetryEmit = measure(*reps, telemetryEmit(*events))
	rep.Current.ReadAhead = measure(*reps, readahead(*events))
	rep.Current.Recovery = measureRecovery(*reps)
	rep.Current.Parity = measureParity(*reps)

	if *baseline != "" {
		if err := attachBaseline(&rep, *baseline); err != nil {
			fmt.Fprintf(os.Stderr, "simbench: baseline: %v\n", err)
			os.Exit(1)
		}
	}

	buf, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "simbench: wrote %s (timer storm: %.0f events/s, %.3f allocs/event)\n",
		*out, rep.Current.TimerStorm.EventsPerSec, rep.Current.TimerStorm.AllocsPerEvent)
}

// attachBaseline loads a prior report and anchors Baseline to it: to
// the prior run's own baseline when it has one (so the pre-optimization
// anchor survives repeated `make bench`), else to its current numbers.
// RecoveryBaseline is anchored the same way, independently, so a prior
// report that predates it supplies its current recovery numbers.
func attachBaseline(rep *Report, path string) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var old Report
	if err := json.Unmarshal(buf, &old); err != nil {
		return err
	}
	base := old.Current
	if old.Baseline != nil {
		base = *old.Baseline
	}
	rep.Baseline = &base
	rep.Speedup = &Speedup{
		TimerStormEventsPerSec: ratio(rep.Current.TimerStorm.EventsPerSec, base.TimerStorm.EventsPerSec),
		TimerStormAllocsRatio:  ratio(base.TimerStorm.AllocsPerEvent, rep.Current.TimerStorm.AllocsPerEvent),
		SwitchNsRatio:          ratio(base.ContextSwitch.NsPerSwitch, rep.Current.ContextSwitch.NsPerSwitch),
		PingpongNsRatio:        ratio(base.Pingpong.NsPerSwitch, rep.Current.Pingpong.NsPerSwitch),
		ParallelEventsPerSec:   ratio(rep.Current.ParallelScale.EventsPerSec, base.ParallelScale.EventsPerSec),
	}

	rb := old.RecoveryBaseline
	if rb == nil {
		rb = old.Current.Recovery
	}
	rep.RecoveryBaseline = rb
	if c := rep.Current.Recovery; rb != nil && c != nil {
		rep.Speedup.RecoveryHostNsRatio = ratio(float64(rb.HostNs), float64(c.HostNs))
		rep.Speedup.RecoveryBytesRatio = ratio(float64(rb.Bytes), float64(c.Bytes))
		rep.Speedup.RecoverySectorsRatio = ratio(float64(rb.SectorsRead), float64(c.SectorsRead))
	}

	pb := old.ParityBaseline
	if pb == nil {
		pb = old.Current.Parity
	}
	rep.ParityBaseline = pb
	if c := rep.Current.Parity; pb != nil && c != nil {
		rep.Speedup.ParityMBPerSec = ratio(c.MBPerSec, pb.MBPerSec)
		rep.Speedup.ParityAllocBytesRatio = ratio(float64(pb.AllocBytes), float64(c.AllocBytes))
	}
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// measure runs a workload reps times and keeps the fastest run (and its
// allocation count — per-event allocations are deterministic, so the
// fastest run is also representative).
func measure(reps int, w func() int64) Metrics {
	var best Metrics
	for r := 0; r < reps; r++ {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		events := w()
		host := time.Since(t0)
		runtime.ReadMemStats(&m1)
		cur := Metrics{
			Events:         events,
			HostNs:         host.Nanoseconds(),
			EventsPerSec:   float64(events) / host.Seconds(),
			Allocs:         m1.Mallocs - m0.Mallocs,
			AllocsPerEvent: float64(m1.Mallocs-m0.Mallocs) / float64(events),
		}
		if best.Events == 0 || cur.HostNs < best.HostNs {
			best = cur
		}
	}
	return best
}

// withSwitch fills NsPerSwitch for workloads where every event is a
// scheduler handoff.
func withSwitch(m Metrics) Metrics {
	m.NsPerSwitch = float64(m.HostNs) / float64(m.Events)
	return m
}

// timerStorm: 64 callback lanes, each rescheduling itself with a
// lane-dependent period until the event budget is spent. No processes,
// so this isolates the event queue: schedule, heap push/pop, dispatch.
func timerStorm(total int64) func() int64 {
	return func() int64 {
		s := sim.New(1)
		defer s.Close()
		const lanes = 64
		scheduled := int64(0)
		remaining := total - lanes
		for l := 0; l < lanes; l++ {
			period := sim.Time(l%7+1) * sim.Microsecond
			var fire func()
			fire = func() {
				if remaining <= 0 {
					return
				}
				remaining--
				scheduled++
				s.After(period, fire)
			}
			scheduled++
			s.After(period, fire)
		}
		if err := s.Run(); err != nil {
			fatal(err)
		}
		return scheduled
	}
}

// contextSwitch: 4 processes in a Sleep round-robin; every event parks
// one process goroutine and resumes another.
func contextSwitch(total int64) func() int64 {
	return func() int64 {
		s := sim.New(1)
		defer s.Close()
		const procs = 4
		per := total / procs
		for i := 0; i < procs; i++ {
			s.Spawn(fmt.Sprintf("t%d", i), func(p *sim.Proc) {
				for j := int64(0); j < per; j++ {
					p.Sleep(sim.Microsecond)
				}
			})
		}
		if err := s.Run(); err != nil {
			fatal(err)
		}
		return per * procs
	}
}

// pingpong: two processes alternating WaitQ wake/block — the blocking
// primitive path rather than the timer path.
func pingpong(total int64) func() int64 {
	return func() int64 {
		s := sim.New(1)
		defer s.Close()
		var qa, qb sim.WaitQ
		rounds := total / 2
		done := false
		// pong spawns first so it is already parked when ping wakes it.
		s.Spawn("pong", func(p *sim.Proc) {
			for {
				p.Block(&qb)
				if done {
					return
				}
				qa.WakeOne()
			}
		})
		s.Spawn("ping", func(p *sim.Proc) {
			for j := int64(0); j < rounds; j++ {
				qb.WakeOne()
				p.Block(&qa)
			}
			done = true
			qb.WakeOne()
		})
		if err := s.Run(); err != nil {
			fatal(err)
		}
		return rounds * 2
	}
}

// parallelScale: GOMAXPROCS independent timer storms through the
// runner's worker pool; aggregate throughput across all cores.
func parallelScale(total int64) func() int64 {
	return func() int64 {
		w := runtime.GOMAXPROCS(0)
		per := total / int64(w)
		counts, err := runner.Map(w, runner.Options{}, func(job int) (int64, error) {
			return timerStorm(per)(), nil
		})
		if err != nil {
			fatal(err)
		}
		var sum int64
		for _, c := range counts {
			sum += c
		}
		return sum
	}
}

// telemetryEmit: the zero-subscriber event-bus path. Every instrumented
// subsystem calls Bus.Emit unconditionally; this pins its cost (and its
// zero heap allocations) when no JSONL writer or trace is attached.
func telemetryEmit(total int64) func() int64 {
	return func() int64 {
		bus := &telemetry.Bus{}
		for i := int64(0); i < total; i++ {
			bus.Emit(telemetry.Event{
				T:      sim.Time(i),
				Kind:   telemetry.EvIOStart,
				Sector: i,
				Bytes:  8192,
				Depth:  i & 15,
			})
		}
		return total
	}
}

// readahead: the adaptive policy's Trigger path over 64 hot files. The
// access mix is fixed — four sequential confirmations to one random
// signal, a collapse every 1024 calls — so the detector map reaches
// steady state immediately and the number measures pure decision cost.
func readahead(total int64) func() int64 {
	return func() int64 {
		pol := prefetch.NewAdaptive(prefetch.AdaptiveConfig{})
		lim := prefetch.Limits{ClusterBlocks: 15, BlockBytes: 8192, FreePages: 4096, WriteHeadroom: 1 << 20}
		for i := int64(0); i < total; i++ {
			ino := int32(i & 63)
			if i&1023 == 1023 {
				pol.Random(ino)
				continue
			}
			pol.Trigger(ino, i%5 != 0, lim)
		}
		return total
	}
}

// measureRecovery builds the crash image once, then repairs and checks
// a fresh copy of it reps times, keeping the fastest run.
func measureRecovery(reps int) *Recovery {
	w := faultlab.Workload{RC: ufsclust.RunA(), FileMB: 16, FsyncEvery: 1 << 20, Seed: 42}
	uncut, err := faultlab.RunToCrash(w, fault.Plan{})
	if err != nil {
		fatal(err)
	}
	st, err := faultlab.RunToCrash(w, fault.Plan{Rules: []fault.Rule{fault.CutAtTime(sim.Time(int64(uncut.End) / 2))}})
	if err != nil {
		fatal(err)
	}
	if !st.Crashed {
		fatal(fmt.Errorf("recovery: mid-run cut never fired"))
	}
	var best *Recovery
	for r := 0; r < reps; r++ {
		s := sim.New(1)
		d := disk.New(s, "sd0", disk.DefaultParams())
		d.Restore(st.Image)
		cd := &countingDev{Device: d}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		rr, err := ufs.Repair(cd)
		if err != nil {
			fatal(err)
		}
		fr, err := ufs.Fsck(cd)
		if err != nil {
			fatal(err)
		}
		host := time.Since(t0)
		runtime.ReadMemStats(&m1)
		s.Close()
		if !rr.Clean() || !fr.Clean() {
			fatal(fmt.Errorf("recovery: repaired image is not clean"))
		}
		cur := &Recovery{
			HostNs:      host.Nanoseconds(),
			Allocs:      m1.Mallocs - m0.Mallocs,
			Bytes:       m1.TotalAlloc - m0.TotalAlloc,
			SectorsRead: cd.sectors,
		}
		if best == nil || cur.HostNs < best.HostNs {
			best = cur
		}
	}
	return best
}

// measureParity lays down every row of a 256-row region of the array once,
// then times four passes of partial-row writes over it, reps times,
// keeping the fastest. Each pass writes one 32 KB chunk per row,
// alternating between the row's two data chunks.
func measureParity(reps int) *Parity {
	s := sim.New(1)
	defer s.Close()
	v, err := vol.New(s, "vol0", vol.Config{Level: vol.RAID5, Members: 3, StripeKB: 32})
	if err != nil {
		fatal(err)
	}
	const rows, passes = 256, 4
	chunk := v.StripeSectors()
	rowSpan := 2 * chunk
	data := make([]byte, chunk*disk.SectorSize)
	for i := range data {
		data[i] = byte(i*7 + 1)
	}
	for r := int64(0); r < rows; r++ {
		v.WriteImage(r*rowSpan, data)
		v.WriteImage(r*rowSpan+chunk, data)
	}
	var best *Parity
	for rep := 0; rep < reps; rep++ {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for pass := int64(0); pass < passes; pass++ {
			for r := int64(0); r < rows; r++ {
				data[0] = byte(pass + r) // every write carries a fresh delta
				v.WriteImage(r*rowSpan+(r+pass)%2*chunk, data)
			}
		}
		host := time.Since(t0)
		runtime.ReadMemStats(&m1)
		bytes := int64(rows*passes) * int64(len(data))
		cur := &Parity{
			Bytes:      bytes,
			HostNs:     host.Nanoseconds(),
			MBPerSec:   float64(bytes) / (1 << 20) / host.Seconds(),
			Allocs:     m1.Mallocs - m0.Mallocs,
			AllocBytes: m1.TotalAlloc - m0.TotalAlloc,
		}
		if best == nil || cur.HostNs < best.HostNs {
			best = cur
		}
	}
	if n, err := v.CheckParity(); n > 0 {
		fatal(fmt.Errorf("parity: %d bad spans after the fold: %v", n, err))
	}
	return best
}

// countingDev counts the sectors an offline recovery reads.
type countingDev struct {
	disk.Device
	sectors int64
}

func (c *countingDev) ReadImage(sector int64, buf []byte) {
	c.sectors += int64(len(buf)+disk.SectorSize-1) / disk.SectorSize
	c.Device.ReadImage(sector, buf)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
	os.Exit(1)
}
