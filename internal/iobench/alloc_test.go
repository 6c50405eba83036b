package iobench

import (
	"runtime/metrics"
	"testing"

	"ufsclust"
	"ufsclust/internal/disk"
	"ufsclust/internal/sim"
	"ufsclust/internal/vol"
)

// heapAllocBytes reads the runtime's cumulative count of bytes allocated
// on the heap.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// The allocation gate: host heap bytes allocated per simulated MB moved,
// on the two data paths that recycle their transfer buffers. Each bound
// is the value measured when the gate was introduced (go1.24, amd64)
// plus stated headroom; a per-I/O buffer allocation put back on either
// path lands well above it.
const (
	// Run A, FSW then FSR, 16 MB each: measured 2.08 MB/MB, bound +20 %.
	// Most of it is per-machine setup (mkfs, page frames) and the disk
	// image's own 64 KB chunks; a transfer buffer allocated per I/O adds
	// about 1.4 MB/MB (measured 3.51).
	cellBytesPerMB = 2.5 * (1 << 20)
	// RAID-5 partial-row writes, 8 KB each, over rows already on the
	// platter: measured 0.13 MB/MB (request and completion bookkeeping),
	// bound about twice that. Allocating the read-modify-write buffers
	// per write adds 2 MB/MB (measured 2.13).
	rmwBytesPerMB = 0.25 * (1 << 20)
)

// TestAllocationPerSimulatedMB is the allocs-per-simulated-MB gate.
func TestAllocationPerSimulatedMB(t *testing.T) {
	t.Run("runA-FSW+FSR", func(t *testing.T) {
		prm := Params{FileMB: 16}
		a0 := heapAllocBytes()
		for _, k := range []Kind{FSW, FSR} {
			if _, err := Run(ufsclust.RunA(), k, prm); err != nil {
				t.Fatal(err)
			}
		}
		perMB := float64(heapAllocBytes()-a0) / float64(2*prm.FileMB)
		t.Logf("run A FSW+FSR: %.2f MB allocated per simulated MB", perMB/(1<<20))
		if perMB > cellBytesPerMB {
			t.Fatalf("run A FSW+FSR allocates %.2f MB per simulated MB, bound %.2f",
				perMB/(1<<20), cellBytesPerMB/(1<<20))
		}
	})

	t.Run("raid5-partial-row", func(t *testing.T) {
		s := sim.New(1)
		defer s.Close()
		// The office machine's array: three members, 32 KB stripe unit,
		// so a row holds 128 data sectors and an 8 KB write is partial.
		v, err := vol.New(s, "vol0", vol.Config{Level: vol.RAID5, Members: 3, StripeKB: 32})
		if err != nil {
			t.Fatal(err)
		}
		const rows, rowSpan = 256, 128
		buf := make([]byte, 8<<10)
		var a0 uint64
		var moved int64
		s.Spawn("writer", func(p *sim.Proc) {
			// Pass 0 puts every row on the platter (the image allocates
			// its chunks); pass 1 is measured.
			for pass := 0; pass < 2; pass++ {
				if pass == 1 {
					a0 = heapAllocBytes()
				}
				for r := int64(0); r < rows; r++ {
					for _, o := range []int64{0, 40, 80} { // the last straddles two chunks
						req := &disk.Request{Sector: r*rowSpan + o, Count: len(buf) / disk.SectorSize, Write: true, Data: buf}
						done := false
						var q sim.WaitQ
						req.Done = func() { done = true; q.WakeAll() }
						v.Submit(req)
						for !done {
							p.Block(&q)
						}
						if req.Err != nil {
							t.Errorf("write at %d: %v", req.Sector, req.Err)
							return
						}
						moved += int64(len(buf)) * int64(pass)
					}
				}
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if v.Stats.ParityRMWRows == 0 || v.Stats.FullStripeWrites != 0 {
			t.Fatalf("loop must run only read-modify-writes: rmw=%d full=%d", v.Stats.ParityRMWRows, v.Stats.FullStripeWrites)
		}
		perMB := float64(heapAllocBytes()-a0) / (float64(moved) / (1 << 20))
		t.Logf("RAID-5 partial-row writes: %.3f MB allocated per MB written", perMB/(1<<20))
		if perMB > rmwBytesPerMB {
			t.Fatalf("RAID-5 partial-row writes allocate %.3f MB per MB written, bound %.3f",
				perMB/(1<<20), rmwBytesPerMB/(1<<20))
		}
	})
}
