package main

import (
	"encoding/json"
	"fmt"

	"ufsclust"
	"ufsclust/internal/iobench"
	"ufsclust/internal/prefetch"
	"ufsclust/internal/runner"
	"ufsclust/internal/vec"
	"ufsclust/internal/vol"
	"ufsclust/internal/wal"
)

// A config is one machine configuration of a matrix: the labels its
// cells carry in the report, and what it changes in the matrix's base
// Params.
type config struct {
	labels map[string]any
	set    func(*iobench.Params)
}

// A matrix is one section of the report: every run × config × kind
// cell, each on a fresh machine, recording the measured phase's rate
// and the named counters.
type matrix struct {
	name     string
	runs     []ufsclust.RunConfig
	kinds    []iobench.Kind
	ops      map[iobench.Kind]int // random-phase operations per kind; absent = default
	base     iobench.Params
	configs  []config
	counters []string
}

// matrices is the whole report, one entry per section.
func matrices() []matrix {
	a, b := ufsclust.RunA(), ufsclust.RunB()
	return []matrix{{
		// Read-ahead policy comparison. The cell parameters mirror the
		// acceptance tests: a 2 MB file against 1 MB of memory, so the
		// steady state has real replacement pressure; pure-random gets
		// enough operations for fixed's accidental trigger matches to
		// show up.
		name:     "ramatrix",
		runs:     []ufsclust.RunConfig{a},
		kinds:    []iobench.Kind{iobench.FSR, iobench.FRR, iobench.FMX},
		ops:      map[iobench.Kind]int{iobench.FRR: 512, iobench.FMX: 16},
		base:     iobench.Params{FileMB: 2},
		configs:  policies("fixed", "adaptive", "off"),
		counters: []string{"core.ra_hits", "vm.ra_waste"},
	}, {
		// Volume comparison: cluster size (run A's 120 KB against run
		// B's 8 KB with rotdelay) × level × stripe width. The
		// single-spindle concat row is the baseline; the parity
		// counters show how much of RAID-5's write traffic ran the
		// full-stripe fast path versus read-modify-write, which is the
		// whole performance story of striping under a clustering file
		// system.
		name:     "volmatrix",
		runs:     []ufsclust.RunConfig{a, b},
		kinds:    []iobench.Kind{iobench.FSW, iobench.FSR},
		base:     iobench.Params{FileMB: 2},
		configs:  volumes(),
		counters: []string{"vol.sub_requests", "vol.full_stripe_writes", "vol.parity_rmw_rows"},
	}, {
		// Readv strategy comparison: the FSTR cell (2 KB records, 32 per
		// call) swept from dense to sparse strides. Density — record
		// over stride — is the independent variable: at 1.0 the vector
		// is one contiguous run, and as the stride widens the sieve
		// envelope reads ever more bytes it throws away while list I/O
		// pays per-run transfers that the elevator batches into one
		// sweep. The records are sub-block on purpose: that is the
		// regime where sieving's clustered envelope genuinely beats
		// per-run transfers at dense strides, so the sweep exhibits
		// Ching et al.'s crossover instead of list dominating
		// everywhere.
		name:     "vecmatrix",
		runs:     []ufsclust.RunConfig{a},
		kinds:    []iobench.Kind{iobench.FSTR},
		base:     iobench.Params{FileMB: 8, VecBatch: 32},
		configs:  strides(2, []int{2, 4, 8, 16, 32, 64}, "naive", "sieve", "list", "auto"),
		counters: []string{"core.vec_runs", "core.vec_coalesced", "core.sieve_waste", "driver.vec_queued"},
	}, {
		// Journal cost: FSW is where the log charges rent — the file
		// grows, so every fsync interval commits inode and indirect
		// block updates to the log before their home locations — and
		// FSR is the control: a read-only steady state stages nothing,
		// so the rate must match the unjournaled machine.
		name:    "jmatrix",
		runs:    []ufsclust.RunConfig{a, b},
		kinds:   []iobench.Kind{iobench.FSW, iobench.FSR},
		base:    iobench.Params{FileMB: 8},
		configs: journals("off", "wal", "wal-clustered"),
		counters: []string{"wal.commits", "wal.commit_sectors", "wal.checkpoints",
			"wal.checkpoint_blocks", "fs.journal_meta_writes"},
	}}
}

// must unwraps a name lookup; the table's names are constants, so an
// unknown one is a typo in this file.
func must[T any](v T, ok bool) T {
	if !ok {
		panic("iobench: unknown axis name in the matrix table")
	}
	return v
}

// machine is a config whose machines get the options opts builds.
func machine(labels map[string]any, opts func() []ufsclust.Option) config {
	return config{labels: labels, set: func(p *iobench.Params) { p.Machine = opts }}
}

// policies runs each read-ahead policy on 1 MB of memory. The policy
// is built per machine: policies carry per-file state.
func policies(names ...string) []config {
	var cs []config
	for _, name := range names {
		pol := must(prefetch.ParsePolicy(name))
		cs = append(cs, machine(map[string]any{"policy": name, "mem_mb": 1}, func() []ufsclust.Option {
			opts := []ufsclust.Option{ufsclust.WithMemBytes(1 << 20)}
			if pol != nil {
				opts = append(opts, ufsclust.WithReadAhead(pol()))
			}
			return opts
		}))
	}
	return cs
}

// volumes is every level at its member count, the striped levels at
// each stripe width.
func volumes() []config {
	var cs []config
	for _, sh := range []struct {
		level   string
		members int
		stripes []int
	}{
		{"concat", 1, []int{0}},
		{"raid0", 3, []int{16, 32, 64}},
		{"raid1", 2, []int{0}},
		{"raid5", 4, []int{16, 32, 64}},
	} {
		lvl := must(vol.ParseLevel(sh.level))
		for _, st := range sh.stripes {
			cfg := vol.Config{Level: lvl, Members: sh.members, StripeKB: st}
			labels := map[string]any{"level": sh.level, "members": sh.members}
			if st != 0 {
				labels["stripe_kb"] = st
			}
			cs = append(cs, machine(labels, func() []ufsclust.Option {
				return []ufsclust.Option{ufsclust.WithVolume(cfg)}
			}))
		}
	}
	return cs
}

// strides sweeps the FSTR stride under each Readv strategy.
func strides(recordKB int, strideKB []int, strategies ...string) []config {
	var cs []config
	for _, st := range strideKB {
		for _, name := range strategies {
			s := must(vec.ParseStrategy(name))
			cs = append(cs, config{
				labels: map[string]any{"record_kb": recordKB, "stride_kb": st,
					"density": float64(recordKB) / float64(st), "strategy": name},
				set: func(p *iobench.Params) {
					p.Record, p.Stride = recordKB<<10, st<<10
					if s != nil {
						p.Machine = func() []ufsclust.Option { return []ufsclust.Option{ufsclust.WithVecStrategy(s)} }
					}
				},
			})
		}
	}
	return cs
}

// journals runs each journal mode.
func journals(modes ...string) []config {
	var cs []config
	for _, name := range modes {
		jc := must(wal.ParseMode(name))
		var opts func() []ufsclust.Option
		if jc != nil {
			opts = func() []ufsclust.Option { return []ufsclust.Option{ufsclust.WithJournal(*jc)} }
		}
		cs = append(cs, machine(map[string]any{"journal": name}, opts))
	}
	return cs
}

// section is one matrix in the report.
type section struct {
	FileMB    int                  `json:"file_mb"`
	Runs      []string             `json:"runs"`
	Kinds     []iobench.Kind       `json:"kinds"`
	RandomOps map[iobench.Kind]int `json:"random_ops,omitempty"`
	Cells     []cell               `json:"cells"`
}

// cell is one measured run × config × kind.
type cell struct {
	Run      string           `json:"run"`
	Kind     iobench.Kind     `json:"kind"`
	Config   map[string]any   `json:"config"`
	RateKBs  float64          `json:"rate_kbs"`
	Counters map[string]int64 `json:"counters"`
}

// run measures every cell of the matrix across workers host goroutines
// (0 = GOMAXPROCS). Each cell is an independent deterministic machine,
// so the section does not depend on the worker count.
func (m matrix) run(workers int) (section, error) {
	sec := section{FileMB: m.base.FileMB, Kinds: m.kinds, RandomOps: m.ops}
	type job struct {
		rc ufsclust.RunConfig
		c  config
		k  iobench.Kind
	}
	var jobs []job
	for _, rc := range m.runs {
		sec.Runs = append(sec.Runs, rc.Name)
		for _, c := range m.configs {
			for _, k := range m.kinds {
				jobs = append(jobs, job{rc, c, k})
			}
		}
	}
	cells, err := runner.Map(len(jobs), runner.Options{Workers: workers}, func(i int) (cell, error) {
		j := jobs[i]
		prm := m.base
		prm.RandomOps = m.ops[j.k]
		j.c.set(&prm)
		res, snap, err := iobench.RunMeasured(j.rc, j.k, prm)
		if err != nil {
			return cell{}, fmt.Errorf("%s %s %s %v: %w", m.name, j.rc.Name, j.k, j.c.labels, err)
		}
		counters := make(map[string]int64, len(m.counters))
		for _, name := range m.counters {
			counters[name] = snap.Get(name)
		}
		return cell{Run: j.rc.Name, Kind: j.k, Config: j.c.labels, RateKBs: res.RateKBs(), Counters: counters}, nil
	})
	sec.Cells = cells
	return sec, err
}

// report runs every matrix and renders the JSON report, one section
// per matrix name.
func report(workers int) ([]byte, error) {
	full := map[string]section{}
	for _, m := range matrices() {
		sec, err := m.run(workers)
		if err != nil {
			return nil, err
		}
		full[m.name] = sec
	}
	out, err := json.MarshalIndent(full, "", "  ")
	return append(out, '\n'), err
}
