// Command simstat runs one IObench cell and dumps the full telemetry of
// the measured phase: every registered counter, the disk latency and
// driver queue-depth histograms, and (with -jsonl) the structured event
// stream as JSON lines — the paper's figures are averages; this is the
// distribution view behind them.
//
// Usage:
//
//	simstat [-run A] [-kind FSR] [-ra fixed] [-vec auto] [-record B] [-stride B] [-file MB] [-ops N] [-mem MB] [-seed N] [-journal mode] [-jsonl file]
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"ufsclust"
	"ufsclust/internal/iobench"
	"ufsclust/internal/prefetch"
	"ufsclust/internal/vec"
	"ufsclust/internal/wal"
)

func main() {
	runName := flag.String("run", "A", "run configuration (A, B, C, D)")
	kindFlag := flag.String("kind", "FSR", "I/O type (FSR, FSU, FSW, FRR, FRU, FMX, FSTR)")
	raFlag := flag.String("ra", "fixed", "read-ahead policy (fixed, adaptive, off)")
	vecFlag := flag.String("vec", "auto", "Readv/Writev strategy (auto, naive, sieve, list)")
	record := flag.Int("record", 0, "FSTR record size in bytes (default the I/O size)")
	stride := flag.Int("stride", 0, "FSTR stride in bytes (default 4x record)")
	fileMB := flag.Int("file", 16, "benchmark file size in MB")
	ops := flag.Int("ops", 0, "random-phase operations (default file/8KB)")
	memMB := flag.Int("mem", 0, "override physical memory in MB (0 = run default)")
	seed := flag.Int64("seed", 0, "workload RNG seed")
	jmode := flag.String("journal", "off", "metadata journal (off, wal, wal-clustered)")
	jsonl := flag.String("jsonl", "", "write the measured phase's event stream to this file as JSON lines (- for stdout)")
	flag.Parse()

	rc, ok := ufsclust.RunByName(*runName)
	if !ok {
		fmt.Fprintf(os.Stderr, "simstat: unknown run %q\n", *runName)
		os.Exit(2)
	}
	kind := iobench.Kind(strings.ToUpper(*kindFlag))
	if !slices.Contains(iobench.AllKinds(), kind) {
		fmt.Fprintf(os.Stderr, "simstat: unknown kind %q\n", *kindFlag)
		os.Exit(2)
	}
	pol, ok := prefetch.ParsePolicy(*raFlag)
	if !ok {
		fmt.Fprintf(os.Stderr, "simstat: unknown read-ahead policy %q\n", *raFlag)
		os.Exit(2)
	}
	strat, ok := vec.ParseStrategy(*vecFlag)
	if !ok {
		fmt.Fprintf(os.Stderr, "simstat: unknown vec strategy %q\n", *vecFlag)
		os.Exit(2)
	}
	jcfg, ok := wal.ParseMode(*jmode)
	if !ok {
		fmt.Fprintf(os.Stderr, "simstat: unknown journal mode %q\n", *jmode)
		os.Exit(2)
	}

	prm := iobench.Params{FileMB: *fileMB, RandomOps: *ops, Seed: *seed, Record: *record, Stride: *stride,
		Machine: func() []ufsclust.Option {
			opts := []ufsclust.Option{ufsclust.WithMemBytes(int64(max(*memMB, 0)) << 20)}
			if pol != nil {
				opts = append(opts, ufsclust.WithReadAhead(pol()))
			}
			if strat != nil {
				opts = append(opts, ufsclust.WithVecStrategy(strat))
			}
			if jcfg != nil {
				opts = append(opts, ufsclust.WithJournal(*jcfg))
			}
			return opts
		}}
	if *jsonl == "-" {
		prm.EventW = os.Stdout
	} else if *jsonl != "" {
		f, err := os.Create(*jsonl)
		if err != nil {
			fmt.Fprintf(os.Stderr, "simstat: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		prm.EventW = f
	}

	res, snap, err := iobench.RunMeasured(rc, kind, prm)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simstat: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("run %s %s, %dMB file: %.0f KB/s over %v (cpu %v)\n",
		res.Run, res.Kind, *fileMB, res.RateKBs(), res.Elapsed, res.CPUTime)
	win := snap.Hist("core.ra_window")
	fmt.Printf("read-ahead %s: %d triggers, %d hits, %d wasted blocks, mean window %.1f blocks\n",
		*raFlag, snap.Get("core.ra_triggers"), snap.Get("core.ra_hits"),
		snap.Get("vm.ra_waste"), win.Mean())
	if calls := snap.Get("core.vec_calls"); calls > 0 {
		fmt.Printf("vectored %s: %d calls, %d runs (%d coalesced), %d sieve-waste bytes, %d list transfers\n",
			*vecFlag, calls, snap.Get("core.vec_runs"), snap.Get("core.vec_coalesced"),
			snap.Get("core.sieve_waste"), snap.Get("driver.vec_queued"))
	}
	if jcfg != nil {
		fmt.Printf("journal %s: %d commits (%d blocks, %d sectors), %d checkpoints (%d blocks), %d staged metadata writes\n",
			*jmode, snap.Get("wal.commits"), snap.Get("wal.commit_blocks"), snap.Get("wal.commit_sectors"),
			snap.Get("wal.checkpoints"), snap.Get("wal.checkpoint_blocks"), snap.Get("fs.journal_meta_writes"))
	}
	fmt.Println()
	snap.Format(os.Stdout)
}
