// Command iobench reproduces the paper's Figures 9, 10, and 11: the
// IObench run configurations, transfer rates in KB/second, and the
// rate ratios relative to run A.
//
// Usage:
//
//	iobench [-file MB] [-ops N] [-runs A,B,C,D] [-ra fixed] [-list] [-ratios] [-parallel N]
//	iobench -matrix BENCH_iobench.json [-parallel N]
//
// -parallel runs the (run, kind) matrix on N host workers (0 means
// GOMAXPROCS). Every cell is an independent deterministic simulation,
// so the output is byte-identical to the serial run.
//
// -matrix skips the figures and instead writes the feature comparison
// matrices (matrix.go) to the named JSON file, one section each:
//
//   - ramatrix: read-ahead policy × {FSR, FRR, FMX} on run A under
//     memory pressure (file twice physical memory), with the prefetch
//     hit/waste counters.
//   - volmatrix: cluster size (run A's 120 KB against run B's 8 KB) ×
//     RAID level × stripe width, sequential write and read, with the
//     parity path counters.
//   - vecmatrix: the FSTR strided-read cell (2 KB records) swept from
//     dense to sparse strides under each Readv strategy, with the vec
//     counters. Data sieving wins the dense strides, true list I/O the
//     sparse ones — the crossover of Ching et al.'s noncontiguous-I/O
//     study — and the auto rows track the winner.
//   - jmatrix: journal mode (off, per-record, clustered) × {FSW, FSR} on
//     runs A and B, with the wal commit/checkpoint counters. The write
//     cells price the log's steady-state cost; the read cells pin that
//     a journal is free when nothing dirties metadata.
//
// Every cell has one schema: run, kind, config (the configuration's
// labels), rate_kbs, and a counters map of telemetry metric names.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ufsclust"
	"ufsclust/internal/iobench"
	"ufsclust/internal/prefetch"
)

func main() {
	fileMB := flag.Int("file", 16, "benchmark file size in MB")
	ops := flag.Int("ops", 0, "random-phase operations (default file/8KB)")
	runsFlag := flag.String("runs", "A,B,C,D", "comma-separated run configurations")
	raFlag := flag.String("ra", "fixed", "read-ahead policy (fixed, adaptive, off)")
	matrixPath := flag.String("matrix", "", "write the feature comparison matrices to this JSON file and exit")
	list := flag.Bool("list", false, "print Figure 9 (run descriptions) and exit")
	ratiosOnly := flag.Bool("ratios", false, "print only Figure 11 (ratios)")
	parallel := flag.Int("parallel", 1, "host workers for the run×kind matrix and -matrix (0 = GOMAXPROCS)")
	flag.Parse()

	if *matrixPath != "" {
		out, err := report(*parallel)
		if err == nil {
			err = os.WriteFile(*matrixPath, out, 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "iobench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("iobench: wrote %s\n", *matrixPath)
		return
	}

	var runs []ufsclust.RunConfig
	for _, name := range strings.Split(*runsFlag, ",") {
		rc, ok := ufsclust.RunByName(strings.TrimSpace(name))
		if !ok {
			fmt.Fprintf(os.Stderr, "iobench: unknown run %q\n", name)
			os.Exit(2)
		}
		runs = append(runs, rc)
	}

	if *list {
		fmt.Println("Figure 9: IObench run descriptions")
		fmt.Printf("%-4s %8s %9s %8s %11s %11s\n", "", "cluster", "rotdelay", "UFS", "free-behind", "write-limit")
		for _, rc := range runs {
			fmt.Printf("%-4s %7dK %7dms %8s %11v %11v\n",
				rc.Name, rc.ClusterKB, rc.RotdelayMs, rc.UFSVersion, rc.FreeBehind, rc.WriteLimit)
		}
		return
	}

	pol, ok := prefetch.ParsePolicy(*raFlag)
	if !ok {
		fmt.Fprintf(os.Stderr, "iobench: unknown read-ahead policy %q\n", *raFlag)
		os.Exit(2)
	}
	prm := iobench.Params{FileMB: *fileMB, RandomOps: *ops}
	if pol != nil {
		prm.Machine = func() []ufsclust.Option { return []ufsclust.Option{ufsclust.WithReadAhead(pol())} }
	}
	tab, err := iobench.RunAllParallel(runs, iobench.Kinds(), prm, *parallel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "iobench: %v\n", err)
		os.Exit(1)
	}
	if !*ratiosOnly {
		fmt.Printf("Figure 10: IObench transfer rates in KB/second (%dMB file)\n", *fileMB)
		fmt.Print(tab.FormatRates(iobench.Kinds()))
		fmt.Println()
	}
	fmt.Println("Figure 11: IObench transfer rate ratios")
	fmt.Print(tab.FormatRatios(iobench.Kinds()))
}
