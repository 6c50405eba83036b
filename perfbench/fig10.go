package main

import (
	"time"

	"ufsclust"
	"ufsclust/internal/iobench"
)

// fig10Pass runs the paper's IObench matrix, runs A-D x
// FSR/FSU/FSW/FRR/FRU, each cell on a fresh machine through
// iobench.RunMeasured. A unit is one cell; its simulated latency sample
// is the cell's mean time per 8 KB call.
func fig10Pass(c config, p *pass) {
	for _, rc := range ufsclust.Runs() {
		for _, kind := range iobench.Kinds() {
			fig10Cell(c, p, rc, kind)
		}
	}
}

func fig10Cell(c config, p *pass, rc ufsclust.RunConfig, kind iobench.Kind) {
	p.unit(rc.Name + string(kind))
	prm := iobench.Params{Seed: c.seed, FileMB: c.size.fig10MB}
	t0 := time.Now()
	res, snap, err := iobench.RunMeasured(rc, kind, prm)
	p.span("simulate", t0)
	if err != nil {
		p.fail("fig10 %s/%s: %v", rc.Name, kind, err)
		return
	}
	const ioSize = 8192
	want := int64(c.size.fig10MB) << 20
	calls := want / ioSize
	if kind == iobench.FSU || kind == iobench.FSW || kind == iobench.FRU {
		calls++ // the closing fsync
	}
	if res.Bytes != want || res.Elapsed <= 0 {
		p.fail("fig10 %s/%s: moved %d bytes in %v, want %d bytes", rc.Name, kind, res.Bytes, res.Elapsed, want)
		return
	}
	p.hash(res.Bytes, int64(res.Elapsed), int64(res.CPUTime))
	p.addDelta(snap)
	p.bytes += res.Bytes
	p.vtNS += int64(res.Elapsed)
	p.cpuNS += int64(res.CPUTime)
	p.cpuBytes += res.Bytes
	p.rates = append(p.rates, res.RateKBs())
	p.opNS = append(p.opNS, float64(res.Elapsed)/float64(calls))
	if rc.Name == "A" || rc.Name == "B" {
		p.split[rc.Name+".bytes"] += res.Bytes
		p.split[rc.Name+".cpu"] += int64(res.CPUTime)
		p.split[rc.Name+".queue"] += snap.Get("driver.queue_wait_ns")
		p.split[rc.Name+".seek"] += snap.Get("disk.seek_time_ns")
		p.split[rc.Name+".rot"] += snap.Get("disk.rot_wait_ns")
		p.split[rc.Name+".xfer"] += snap.Get("disk.xfer_time_ns")
	}
}

// fig10Cold is the set-up unit: the first cell of the matrix.
func fig10Cold(c config, p *pass) { fig10Cell(c, p, ufsclust.RunA(), iobench.FSR) }

// fig10Probe times machine construction and teardown for each run
// configuration with the cell machines' options; RunMeasured hides both
// inside one call.
func fig10Probe(c config, p *pass) {
	for _, rc := range ufsclust.Runs() {
		probeMachine(p, rc, ufsclust.WithSeed(c.seed+1))
	}
}

// probeMachine times ufsclust.New and Machine.Close for one machine.
func probeMachine(p *pass, rc ufsclust.RunConfig, opts ...ufsclust.Option) {
	t0 := time.Now()
	m, err := ufsclust.New(rc, opts...)
	t0 = p.span("machine_new", t0)
	if err != nil {
		p.fail("probe %s: %v", rc.Name, err)
		return
	}
	m.Close()
	p.span("close", t0)
}
