package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"sort"
	"time"

	"ufsclust/internal/telemetry"
)

// metric is one reported figure. moves names the end-to-end metric a
// per-layer metric should move and on which workload, so a later change
// can cite the pairing instead of re-deriving it.
type metric struct {
	name, unit, better string
	bound              float64 // end-to-end only: allowed worsening, share of the parent's median
	moves              string
}

// endToEnd are the user-visible metrics, reported from untraced runs on
// every workload. Host figures are medians over the run's passes; vt_*
// figures are exact because the simulator is deterministic. The share
// of failed units is printed beside them but carried in the result's
// attempted and failed counts, as a metric may never read 0.
var endToEnd = []metric{
	{"wall_s", "s", "lower", 0.25, ""},
	{"setup_s", "s", "lower", 0.25, ""},
	{"alloc_mb", "MB", "lower", 0.05, ""},
	{"rss_peak_mb", "MB", "lower", 0.15, ""},
	{"vt_kbs", "KB/s", "higher", 0.10, ""},
	{"vt_cpu_ms_per_mb", "ms/MB", "lower", 0.05, ""},
	{"vt_op_ms_p50", "ms", "lower", 0.10, ""},
	{"vt_op_ms_p99", "ms", "lower", 0.10, ""},
}

// perLayer are the traced run's metrics, per pass.
var perLayer = func() []metric {
	var ms []metric
	hostMoves := map[string]string{
		"sim": "wall_s@fig10", "core": "wall_s@fig10", "vm": "wall_s@fig10",
		"disk": "wall_s@fig10 wall_s@crash", "ufs": "wall_s@crash",
		"vol": "wall_s@office", "wal": "wall_s@office", "prefetch": "wall_s@office", "vec": "wall_s@office",
		"machine": "setup_s@fig10 setup_s@crash", "gc": "wall_s@fig10",
	}
	allocMoves := map[string]string{
		"core": "alloc_mb@fig10", "driver": "alloc_mb@fig10", "disk": "alloc_mb@crash",
		"ufs": "alloc_mb@fig10 alloc_mb@crash", "vol": "alloc_mb@office", "wal": "alloc_mb@office",
	}
	for _, l := range layers {
		ms = append(ms, metric{name: "host." + l + "_s", unit: "s", better: "lower", moves: hostMoves[l]})
	}
	ms = append(ms,
		metric{name: "host.self_total_s", unit: "s", better: "lower", moves: "wall_s"},
		metric{name: "host.process_cpu_s", unit: "s", better: "lower", moves: "wall_s"},
		metric{name: "trace.overhead_s", unit: "s", better: "lower"},
	)
	for _, l := range layers {
		if l == "gc" {
			continue
		}
		ms = append(ms, metric{name: "alloc." + l + "_mb", unit: "MB", better: "lower", moves: allocMoves[l]})
	}
	ms = append(ms, metric{name: "alloc.total_mb", unit: "MB", better: "lower", moves: "alloc_mb"})
	for _, s := range []struct{ name, moves string }{
		{"machine_new", "setup_s@fig10 setup_s@crash wall_s@fig10 wall_s@crash"},
		{"simulate", "wall_s@fig10 wall_s@office"},
		{"close", "wall_s@office"},
		{"run_to_crash", "wall_s@crash"},
		{"recover", "wall_s@crash"},
		{"verify", "wall_s@crash wall_s@office"},
	} {
		ms = append(ms, metric{name: "span." + s.name + "_ms", unit: "ms", better: "lower", moves: s.moves})
	}
	const vtMoves = "vt_kbs@fig10 vt_kbs@office vt_cpu_ms_per_mb@fig10 vt_cpu_ms_per_mb@office"
	const officeMoves = "vt_op_ms_p99@office vt_kbs@office"
	for _, c := range []struct{ name, unit, better, moves string }{
		{"cpu.system_ms", "ms", "lower", vtMoves},
		{"disk.ios", "count", "lower", vtMoves},
		{"disk.seek_ms", "ms", "lower", vtMoves},
		{"disk.rot_ms", "ms", "lower", vtMoves},
		{"disk.xfer_ms", "ms", "lower", vtMoves},
		{"disk.queue_ms", "ms", "lower", vtMoves},
		{"disk.buf_hit_ratio", "ratio", "higher", vtMoves},
		{"driver.issued", "count", "lower", vtMoves},
		{"driver.queue_ms", "ms", "lower", vtMoves},
		{"driver.avg_xfer_kb", "KB", "higher", vtMoves},
		{"vm.hit_ratio", "ratio", "higher", vtMoves},
		{"vm.steals", "count", "lower", vtMoves},
		{"vm.pageouts", "count", "lower", vtMoves},
		{"vm.mem_waits", "count", "lower", vtMoves},
		{"core.sync_reads", "count", "lower", vtMoves},
		{"core.async_reads", "count", "higher", vtMoves},
		{"core.write_stalls", "count", "lower", vtMoves},
		{"prefetch.useful_ratio", "ratio", "higher", vtMoves},
		{"core.ra_collapses", "count", "lower", vtMoves},
		{"vec.runs_per_call", "count", "lower", officeMoves},
		{"core.sieve_waste", "count", "lower", officeMoves},
		{"fs.alloc_calls", "count", "lower", vtMoves},
		{"fs.bc_hit_ratio", "ratio", "higher", vtMoves},
		{"fs.sync_meta_writes", "count", "lower", officeMoves},
		{"wal.commits", "count", "lower", officeMoves},
		{"wal.sectors_per_commit", "count", "lower", officeMoves},
		{"wal.empty_ratio", "ratio", "lower", officeMoves},
		{"wal.checkpoints", "count", "lower", officeMoves},
		{"vol.rmw_share", "ratio", "lower", officeMoves},
		{"recover.sectors_read_plain", "count", "lower", "wall_s@crash"},
		{"recover.sectors_read_wal", "count", "lower", "wall_s@crash"},
		{"recover.fixes", "count", "lower", "wall_s@crash"},
	} {
		ms = append(ms, metric{name: c.name, unit: c.unit, better: c.better, moves: c.moves})
	}
	for _, run := range []string{"A", "B"} {
		for _, part := range []string{"cpu", "queue", "seek", "rot", "xfer"} {
			ms = append(ms, metric{name: "vt." + run + "." + part + "_ms_per_mb", unit: "ms/MB", better: "lower",
				moves: "vt_kbs@fig10 vt_cpu_ms_per_mb@fig10"})
		}
	}
	return ms
}()

// pass accumulates one measured pass of a workload: its units, their
// data checks, their virtual-time results and exact counts, and the host
// time of the public calls they made.
type pass struct {
	units, failed int
	firstFailure  string

	bytes    int64     // user bytes moved in simulated time
	vtNS     int64     // simulated time those bytes took
	cpuNS    int64     // simulated system CPU ...
	cpuBytes int64     // ... per this many bytes
	rates    []float64 // per-unit KB/s when vt_kbs is their geometric mean
	opNS     []float64 // simulated latency per file-system call, ns

	counts map[string]int64     // summed Snapshot deltas and harness counts
	split  map[string]int64     // fig10 thesis split, ns per run and part
	spans  map[string][]float64 // host ms per unit, by span name
	digest hash.Hash64
}

func newPass() *pass {
	return &pass{counts: map[string]int64{}, split: map[string]int64{}, spans: map[string][]float64{}, digest: fnv.New64a()}
}

// unit opens a unit: it is attempted from here on.
func (p *pass) unit(label string) {
	p.units++
	p.digest.Write([]byte(label))
}

// fail marks the current unit failed. Call at most once per unit.
func (p *pass) fail(format string, args ...any) {
	p.failed++
	if p.firstFailure == "" {
		p.firstFailure = fmt.Sprintf(format, args...)
	}
}

// span records the host time since t0 under name and returns now.
func (p *pass) span(name string, t0 time.Time) time.Time {
	now := time.Now()
	p.spans[name] = append(p.spans[name], float64(now.Sub(t0).Nanoseconds())/1e6)
	return now
}

// hash folds exact virtual-time values into the pass digest.
func (p *pass) hash(vals ...int64) {
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		p.digest.Write(b[:])
	}
}

// addDelta sums a unit's Snapshot delta into the pass counts and the
// digest. Gauges are levels, not work, and are left out.
func (p *pass) addDelta(d telemetry.Snapshot) {
	for _, e := range d.Entries {
		if e.Gauge {
			continue
		}
		p.counts[e.Name] += e.Value
		p.digest.Write([]byte(e.Name))
		p.hash(e.Value)
	}
}

// vtMetrics derives the exact end-to-end vt_* figures from a pass.
func (p *pass) vtMetrics() map[string]float64 {
	kbs := 0.0
	if len(p.rates) > 0 {
		logSum := 0.0
		for _, r := range p.rates {
			logSum += math.Log(r)
		}
		kbs = math.Exp(logSum / float64(len(p.rates)))
	} else if p.vtNS > 0 {
		kbs = float64(p.bytes) / 1024 / (float64(p.vtNS) / 1e9)
	}
	ops := append([]float64(nil), p.opNS...)
	sort.Float64s(ops)
	return map[string]float64{
		"vt_kbs":           kbs,
		"vt_cpu_ms_per_mb": ratio(float64(p.cpuNS)/1e6, float64(p.cpuBytes)/(1<<20)),
		"vt_op_ms_p50":     hdQuantile(ops, 0.50) / 1e6,
		"vt_op_ms_p99":     hdQuantile(ops, 0.99) / 1e6,
	}
}

// layerCounts derives the per-layer virtual-time metrics from a pass.
func (p *pass) layerCounts() map[string]float64 {
	c := func(name string) float64 { return float64(p.counts[name]) }
	ms := func(name string) float64 { return c(name) / 1e6 }
	out := map[string]float64{
		"cpu.system_ms":              ms("cpu.system_ns"),
		"disk.ios":                   c("disk.reads") + c("disk.writes"),
		"disk.seek_ms":               ms("disk.seek_time_ns"),
		"disk.rot_ms":                ms("disk.rot_wait_ns"),
		"disk.xfer_ms":               ms("disk.xfer_time_ns"),
		"disk.queue_ms":              ms("disk.queue_wait_ns"),
		"disk.buf_hit_ratio":         ratio(c("disk.buf_hits"), c("disk.buf_hits")+c("disk.buf_misses")),
		"driver.issued":              c("driver.issued"),
		"driver.queue_ms":            ms("driver.queue_wait_ns"),
		"driver.avg_xfer_kb":         ratio((c("disk.sectors_read")+c("disk.sectors_written"))/2, c("driver.issued")),
		"vm.hit_ratio":               ratio(c("vm.hits"), c("vm.lookups")),
		"vm.steals":                  c("vm.steals"),
		"vm.pageouts":                c("vm.pageouts"),
		"vm.mem_waits":               c("vm.mem_waits"),
		"core.sync_reads":            c("core.sync_reads"),
		"core.async_reads":           c("core.async_reads"),
		"core.write_stalls":          c("core.write_stalls"),
		"prefetch.useful_ratio":      ratio(c("core.ra_hits"), c("core.ra_hits")+c("vm.ra_waste")),
		"core.ra_collapses":          c("core.ra_collapses"),
		"vec.runs_per_call":          ratio(c("core.vec_runs"), c("core.vec_calls")),
		"core.sieve_waste":           c("core.sieve_waste"),
		"fs.alloc_calls":             c("fs.alloc_calls"),
		"fs.bc_hit_ratio":            ratio(c("fs.bc_hits"), c("fs.bc_hits")+c("fs.bc_misses")),
		"fs.sync_meta_writes":        c("fs.sync_meta_writes"),
		"wal.commits":                c("wal.commits"),
		"wal.sectors_per_commit":     ratio(c("wal.commit_sectors"), c("wal.commits")),
		"wal.empty_ratio":            ratio(c("wal.empty_commits"), c("wal.commits")),
		"wal.checkpoints":            c("wal.checkpoints"),
		"vol.rmw_share":              ratio(c("vol.parity_rmw_rows"), c("vol.parity_rmw_rows")+c("vol.full_stripe_writes")),
		"recover.sectors_read_plain": c("recover.sectors_read_plain"),
		"recover.sectors_read_wal":   c("recover.sectors_read_wal"),
		"recover.fixes":              c("recover.fixes"),
	}
	for _, run := range []string{"A", "B"} {
		mb := float64(p.split[run+".bytes"]) / (1 << 20)
		for _, part := range []string{"cpu", "queue", "seek", "rot", "xfer"} {
			out["vt."+run+"."+part+"_ms_per_mb"] = ratio(float64(p.split[run+"."+part])/1e6, mb)
		}
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile interpolates linearly between the closest ranks of sorted xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// hdQuantile is the Harrell-Davis estimate of quantile q of sorted xs: a
// weighted mean of every order statistic. Simulated latencies are
// quantized to whole disk rotations, so a plain sample quantile jumps
// between a few levels; this estimate moves with every sample.
func hdQuantile(xs []float64, q float64) float64 {
	n := float64(len(xs))
	a, b := q*(n+1), (1-q)*(n+1)
	sum, prev := 0.0, 0.0
	for i, x := range xs {
		cur := betaInc(a, b, float64(i+1)/n)
		sum += (cur - prev) * x
		prev = cur
	}
	return sum
}

// betaInc is the regularized incomplete beta function I_x(a, b),
// evaluated by its continued fraction (Lentz's method).
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log(1-x))
	if x > (a+1)/(a+b+2) {
		return 1 - front*betaCF(b, a, 1-x)/b
	}
	return front * betaCF(a, b, x) / a
}

func betaCF(a, b, x float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 300; m++ {
		num := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		num = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-15 {
			break
		}
	}
	return h
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
