package faultlab

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"ufsclust"
	"ufsclust/internal/disk"
	"ufsclust/internal/fault"
	"ufsclust/internal/sim"
	"ufsclust/internal/ufs"
	"ufsclust/internal/vol"
	"ufsclust/internal/wal"
)

// TestJournaledCrashPointProperty is the journaled twin of the core
// crash-point property: wherever the cut lands, log replay alone (no
// full-image repair) must leave a consistent file system holding the
// acknowledged prefix intact — for both log write layouts.
func TestJournaledCrashPointProperty(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  wal.Config
	}{
		{"per-record", wal.Config{}},
		{"clustered", wal.Config{Clustered: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			w := Workload{RC: ufsclust.RunA(), FileMB: 2, FsyncEvery: 256 << 10, Seed: 7, Journal: &cfg}
			sr, err := Sweep(w, 10, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range sr.Reports {
				if r.Outcome.Violation() {
					t.Errorf("cut %v (acked %d): %s: %s", r.Cut, r.Acked, r.Outcome, r.Detail)
				}
				if r.RecoveryBound == 0 {
					t.Errorf("cut %v: no replay accounting on a journaled recovery", r.Cut)
				}
				if r.RecoverySectorsRead > r.RecoveryBound {
					t.Errorf("cut %v: recovery read %d sectors, bound %d", r.Cut, r.RecoverySectorsRead, r.RecoveryBound)
				}
			}
		})
	}
}

// TestJournaledSweepWriteCellAcceptance is the tentpole acceptance
// gate: 50 power cuts across the full 16 MB IObench write cell on a
// journaled machine — zero durability violations, and every recovery
// bounded by the log region size rather than the image size.
func TestJournaledSweepWriteCellAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("50-cut 16 MB journaled sweep in -short mode")
	}
	w := Workload{RC: ufsclust.RunA(), FileMB: 16, FsyncEvery: 1 << 20, Seed: 42, Journal: &wal.Config{}}
	sr, err := Sweep(w, 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v := sr.Violations(); len(v) != 0 {
		t.Fatalf("%d crash-consistency violations:\n%s", len(v), sr.Format())
	}
	for _, r := range sr.Reports {
		if r.RecoverySectorsRead > r.RecoveryBound {
			t.Errorf("cut %v: recovery read %d sectors, log is only %d", r.Cut, r.RecoverySectorsRead, r.RecoveryBound)
		}
	}
	t.Logf("\n%s", sr.Format())
}

// countingDev counts offline sector reads through a Device — the
// instrument for comparing recovery costs without wall clocks. It also
// counts reads per starting sector, so a test can tell how often each
// block was fetched.
type countingDev struct {
	disk.Device
	reads  int64
	starts map[int64]int
}

func (c *countingDev) ReadImage(sector int64, buf []byte) {
	c.reads += int64(len(buf)+disk.SectorSize-1) / disk.SectorSize
	c.starts[sector]++
	c.Device.ReadImage(sector, buf)
}

// restoreCounting boots a fresh disk from img behind a countingDev.
func restoreCounting(t *testing.T, img *disk.Image) (*countingDev, *disk.Disk) {
	t.Helper()
	s := sim.New(1)
	t.Cleanup(s.Close)
	d := disk.New(s, "sd0", disk.DefaultParams())
	d.Restore(img)
	return &countingDev{Device: d, starts: make(map[int64]int)}, d
}

// checkInodeBlockReads fails unless every inode block of the file
// system on c was read exactly want times through it.
func checkInodeBlockReads(t *testing.T, c *countingDev, want int) {
	t.Helper()
	sb, err := ufs.ReadSuperblock(c.Device)
	if err != nil {
		t.Fatal(err)
	}
	for cgx := int32(0); cgx < sb.Ncg; cgx++ {
		for blk := int32(0); blk < sb.InodeBlocks(); blk++ {
			sec := sb.FsbToDb(sb.CgIblock(cgx) + blk*sb.Frag)
			if got := c.starts[sec]; got != want {
				t.Fatalf("inode block at sector %d read %d times, want %d", sec, got, want)
			}
		}
	}
}

// imageHash returns the SHA-256 of d's serialized image.
func imageHash(t *testing.T, d *disk.Disk) string {
	t.Helper()
	h := sha256.New()
	if err := d.DumpImage(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// crashMidRun cuts the workload at roughly half its uncut duration and
// returns the frozen state.
func crashMidRun(t *testing.T, w Workload) *CrashState {
	t.Helper()
	base, err := RunToCrash(w, fault.Plan{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := RunToCrash(w, fault.Plan{Rules: []fault.Rule{fault.CutAtTime(base.End / 2)}})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Crashed {
		t.Fatal("mid-run cut never fired")
	}
	return st
}

// TestJournaledRecoveryCostBounded pins the economics of the journal:
// replay reads at most the log region, the bound does not grow with
// the image, and on the 16 MB write cell replay reads strictly fewer
// sectors than the full-image ufs.Repair of the same crash.
//
// The plain crash also pins what offline recovery without a journal
// costs and produces: Fsck's inode pass reads each inode block exactly
// once, and so does Repair's, whose only other read of an inode block
// is its closing Fsck. The crash image (written by the running
// machine's buffer cache, cylinder-group stores included) and the
// repaired image hash to pinned values, so the host-side codecs and
// scans leave every on-disk byte as it was.
func TestJournaledRecoveryCostBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("16 MB recovery-cost comparison in -short mode")
	}
	recoverAt := func(fileMB int) *Report {
		w := Workload{RC: ufsclust.RunA(), FileMB: fileMB, FsyncEvery: 1 << 20, Seed: 42, Journal: &wal.Config{}}
		st := crashMidRun(t, w)
		rep, _, err := Recover(w, st)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Outcome.Violation() {
			t.Fatalf("%d MB: %s: %s", fileMB, rep.Outcome, rep.Detail)
		}
		return rep
	}

	small, big := recoverAt(4), recoverAt(16)
	for _, rep := range []*Report{small, big} {
		if rep.RecoveryBound == 0 || rep.RecoverySectorsRead > rep.RecoveryBound {
			t.Fatalf("replay read %d sectors against bound %d", rep.RecoverySectorsRead, rep.RecoveryBound)
		}
	}
	// Image-size independence: quadrupling the file leaves the bound
	// untouched — it is a property of the log, not the image.
	if small.RecoveryBound != big.RecoveryBound {
		t.Fatalf("recovery bound moved with image size: %d at 4 MB, %d at 16 MB", small.RecoveryBound, big.RecoveryBound)
	}

	// The same 16 MB crash without a journal recovers by full-image
	// repair; count its reads through a wrapped device.
	wu := Workload{RC: ufsclust.RunA(), FileMB: 16, FsyncEvery: 1 << 20, Seed: 42}
	st := crashMidRun(t, wu)
	const (
		crashHash    = "2ff6890f71f363b8e120771b990128bdebbc24faa0ee8876b2ab1c284e706257"
		repairedHash = "e0fae74184437b93784f3a73e4add122ce58bb889438cb6d9338a8e8c5812487"
	)

	fc, d := restoreCounting(t, st.Image)
	if got := imageHash(t, d); got != crashHash {
		t.Fatalf("crash image hash %s, want %s", got, crashHash)
	}
	if _, err := ufs.Fsck(fc); err != nil {
		t.Fatal(err)
	}
	checkInodeBlockReads(t, fc, 1)

	cd, d := restoreCounting(t, st.Image)
	rr, err := ufs.Repair(cd)
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Clean() {
		t.Fatalf("repaired image is dirty: %v", rr.Check.Problems)
	}
	// One read in the inode pass, one in the closing Fsck.
	checkInodeBlockReads(t, cd, 2)
	if got := imageHash(t, d); got != repairedHash {
		t.Fatalf("repaired image hash %s, want %s", got, repairedHash)
	}
	if big.RecoverySectorsRead >= cd.reads {
		t.Fatalf("journal replay read %d sectors, full-image repair read %d — replay must be strictly cheaper",
			big.RecoverySectorsRead, cd.reads)
	}
	t.Logf("replay read %d sectors (bound %d); ufs.Repair read %d", big.RecoverySectorsRead, big.RecoveryBound, cd.reads)
}

// TestJournaledDegradedMirrorSweep extends the sweep matrix to a
// journaled machine on an already-degraded two-way mirror: the dead
// spindle changes nothing about the durability contract or the replay
// bound.
func TestJournaledDegradedMirrorSweep(t *testing.T) {
	w := volWorkload(vol.Config{Level: vol.RAID1, Members: 2, Degraded: []int{1}})
	w.Journal = &wal.Config{}
	cuts := 10
	if !testing.Short() {
		cuts = 50
	}
	sr, err := Sweep(w, cuts, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v := sr.Violations(); len(v) != 0 {
		t.Fatalf("%d violations on journaled degraded mirror:\n%s", len(v), sr.Format())
	}
	for _, r := range sr.Reports {
		if r.RecoveryBound == 0 || r.RecoverySectorsRead > r.RecoveryBound {
			t.Errorf("cut %v: replay accounting %d/%d", r.Cut, r.RecoverySectorsRead, r.RecoveryBound)
		}
	}
}
