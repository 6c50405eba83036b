package main

import (
	"fmt"
	"time"

	"ufsclust"
	"ufsclust/internal/disk"
	"ufsclust/internal/fault"
	"ufsclust/internal/faultlab"
	"ufsclust/internal/sim"
	"ufsclust/internal/ufs"
	"ufsclust/internal/wal"
)

// crashWorkload is the faultlab write cell on run A: a 16 MB file
// written 8 KB at a time with an fsync every 1 MB, journaled or plain.
func crashWorkload(c config, journaled bool) faultlab.Workload {
	w := faultlab.Workload{RC: ufsclust.RunA(), FileMB: c.size.crashMB, FsyncEvery: c.size.crashFsync, Seed: c.seed}
	if journaled {
		w.Journal = &wal.Config{}
	}
	return w
}

func kindName(journaled bool) string {
	if journaled {
		return "wal"
	}
	return "plain"
}

// crashEnds returns the uncut duration of the workload on each machine
// kind, plain then journaled, which places the cuts. Set-up computes it
// once per process by running both references uncut.
func crashEnds(c config, p *pass) [2]sim.Time {
	if c.memo.crashEnds == [2]sim.Time{} {
		for k, journaled := range []bool{false, true} {
			c.memo.crashEnds[k] = crashReference(c, p, journaled, nil)
		}
	}
	return c.memo.crashEnds
}

// cutAt is the i-th of n cut instants evenly spaced over (0, end).
func cutAt(end sim.Time, i, n int) sim.Time { return end * sim.Time(i) / sim.Time(n+1) }

// crashPass runs one reference per machine kind, which measures the
// workload's simulated write performance up to each cut instant, then
// the cuts: evenly spaced over the uncut duration and alternating plain
// (recovered by ufs.Repair) and journaled (recovered by replay).
func crashPass(c config, p *pass) {
	ends := crashEnds(c, p)
	if ends[0] == 0 || ends[1] == 0 {
		return
	}
	n := c.size.crashCuts
	for k, journaled := range []bool{false, true} {
		var cuts []sim.Time
		for i := 1 + k; i <= n; i += 2 {
			cuts = append(cuts, cutAt(ends[k], i, n))
		}
		if end := crashReference(c, p, journaled, cuts); end != 0 && end != ends[k] {
			p.fail("crash reference %s: ran %v, set-up measured %v", kindName(journaled), end, ends[k])
		}
	}
	for i := 1; i <= n; i++ {
		k := (i + 1) % 2
		crashCut(c, p, k == 1, cutAt(ends[k], i, n))
	}
}

// crashReference runs the faultlab workload uncut on the machine
// faultlab.RunToCrash would build, through Engine and File calls, and
// returns its duration. At each given cut instant it reads the CPU
// spent and the bytes written so far: the simulated cost of the work a
// cut at that instant interrupts.
func crashReference(c config, p *pass, journaled bool, cuts []sim.Time) sim.Time {
	w := crashWorkload(c, journaled)
	p.unit("ref-" + kindName(journaled))
	opts := []ufsclust.Option{ufsclust.WithSeed(w.Seed + 1), ufsclust.WithMemBytes(w.MemBytes)}
	if journaled {
		opts = append(opts, ufsclust.WithJournal(*w.Journal))
	}
	m, err := ufsclust.New(w.RC, opts...)
	if err != nil {
		p.fail("crash reference %s: %v", kindName(journaled), err)
		return 0
	}
	defer m.Close()
	size := w.Size()
	var runErr error
	var written int64
	pre := m.Snapshot()
	for _, cut := range cuts {
		m.Sim.At(cut, func() {
			p.cpuNS += m.Snapshot().Get("cpu.system_ns") - pre.Get("cpu.system_ns")
			p.cpuBytes += written
		})
	}
	t0 := time.Now()
	err = m.Run(func(sp *sim.Proc) {
		f, err := m.Engine.Create(sp, "/faultlab")
		if err != nil {
			runErr = err
			return
		}
		// One operation, one sample of vt_op_ms_*, is the write of one
		// fsync interval and the fsync that acknowledges it.
		chunk := make([]byte, 8192)
		t := sp.Now()
		for off := int64(0); off < size; off += int64(len(chunk)) {
			for i := range chunk {
				chunk[i] = faultlab.PatternByte(w.Seed, off+int64(i))
			}
			if _, runErr = f.Write(sp, off, chunk); runErr != nil {
				return
			}
			written += int64(len(chunk))
			if written%int64(w.FsyncEvery) == 0 {
				if runErr = f.Fsync(sp); runErr != nil {
					return
				}
				p.opNS = append(p.opNS, float64(sp.Now()-t))
				t = sp.Now()
			}
		}
		// faultlab closes with one more fsync, which must be mirrored
		// for the duration to match.
		if runErr = f.Fsync(sp); runErr == nil && size%int64(w.FsyncEvery) != 0 {
			p.opNS = append(p.opNS, float64(sp.Now()-t))
		}
	})
	p.span("simulate", t0)
	if err == nil {
		err = runErr
	}
	if err != nil {
		p.fail("crash reference %s: %v", kindName(journaled), err)
		return 0
	}
	d := m.Snapshot().Delta(pre)
	p.addDelta(d)
	p.hash(int64(d.Interval))
	p.bytes += size
	p.vtNS += int64(d.Interval)
	return d.Interval
}

// crashCut is one power-cut round trip: faultlab.RunToCrash cut at the
// given instant, then faultlab.Recover, which reboots through repair or
// replay and verifies every acknowledged byte.
func crashCut(c config, p *pass, journaled bool, cut sim.Time) {
	w := crashWorkload(c, journaled)
	label := fmt.Sprintf("cut-%s@%d", kindName(journaled), cut)
	p.unit(label)
	t0 := time.Now()
	st, err := faultlab.RunToCrash(w, fault.Plan{Rules: []fault.Rule{fault.CutAtTime(cut)}})
	t0 = p.span("run_to_crash", t0)
	if err != nil {
		p.fail("%s: %v", label, err)
		return
	}
	if !st.Crashed {
		p.fail("%s: the cut never fired", label)
		return
	}
	rep, rr, err := faultlab.Recover(w, st)
	p.span("recover", t0)
	if err != nil {
		p.fail("%s: %v", label, err)
		return
	}
	p.hash(st.Acked, int64(st.Cut), rep.Size, int64(rep.Fixes), int64(rep.ReplayTxns), rep.RecoverySectorsRead)
	p.digest.Write([]byte(rep.Outcome))
	p.counts["recover.fixes"] += int64(rep.Fixes)
	if journaled {
		// Replay reports its own read cost; ufs.Repair does not, so
		// plain cuts are counted by the traced-only audit (crashProbe).
		p.counts["recover.sectors_read_wal"] += rep.RecoverySectorsRead
	}
	switch {
	case rep.Outcome.Violation():
		p.fail("%s: %s: %s", label, rep.Outcome, rep.Detail)
	case journaled && (rep.RecoverySectorsRead <= 0 || rep.RecoverySectorsRead > rep.RecoveryBound):
		p.fail("%s: replay read %d sectors against bound %d", label, rep.RecoverySectorsRead, rep.RecoveryBound)
	case !journaled && (rr == nil || !rr.Clean()):
		p.fail("%s: repair left the image dirty", label)
	}
}

// crashCold is the set-up: both uncut references, which place the
// cuts, and the first cut.
func crashCold(c config, p *pass) {
	if ends := crashEnds(c, p); ends[0] > 0 {
		crashCut(c, p, false, cutAt(ends[0], 1, c.size.crashCuts))
	}
}

// crashProbe times machine construction for both kinds, then audits
// every plain cut of a pass offline: the frozen image is restored
// behind a sector-counting device, repaired with ufs.Repair and checked.
// This yields the exact repair read cost, which the boot path does not
// report; journaled cuts count faultlab's replay figure in crashCut.
func crashProbe(c config, p *pass) {
	for _, journaled := range []bool{false, true} {
		w := crashWorkload(c, journaled)
		opts := []ufsclust.Option{ufsclust.WithSeed(w.Seed + 1)}
		if journaled {
			opts = append(opts, ufsclust.WithJournal(*w.Journal))
		}
		probeMachine(p, w.RC, opts...)
	}
	ends := crashEnds(c, p)
	w := crashWorkload(c, false)
	for i := 1; i <= c.size.crashCuts; i += 2 {
		p.unit("audit")
		st, err := faultlab.RunToCrash(w, fault.Plan{Rules: []fault.Rule{fault.CutAtTime(cutAt(ends[0], i, c.size.crashCuts))}})
		if err != nil {
			p.fail("audit plain: %v", err)
			continue
		}
		t0 := time.Now()
		sectors, err := auditRepair(st.Image)
		p.span("verify", t0)
		if err != nil {
			p.fail("audit plain: %v", err)
			continue
		}
		p.counts["recover.sectors_read_plain"] += sectors
	}
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

// auditRepair repairs a plain crash image with ufs.Repair, as a
// recovery boot would, checks the result is clean and returns the
// sectors the repair read.
func auditRepair(img *disk.Image) (int64, error) {
	s := sim.New(1)
	defer s.Close()
	d := disk.New(s, "sd0", disk.DefaultParams())
	d.Restore(img)
	cd := &countingDev{Device: d}
	rr, err := ufs.Repair(cd)
	if err != nil {
		return 0, err
	}
	if !rr.Clean() {
		return 0, fmt.Errorf("repaired image is dirty")
	}
	return cd.sectors, nil
}
