package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"ufsclust/internal/sim"
	"ufsclust/internal/ufs"
)

// TestTransferBuffersRecycleSafely interleaves writers and cold readers
// of different transfer sizes on one engine, so the transfer-buffer free
// list hands a buffer back out while transfers of other sizes are still
// queued or on the platter. Each worker owns one file — sizes with
// fragment tails, writes from one sector to several clusters long — and
// checks every read against its own shadow. A buffer given back while
// its transfer was still in flight would carry another worker's bytes
// into a page or onto the platter.
func TestTransferBuffersRecycleSafely(t *testing.T) {
	for _, variant := range []struct {
		name string
		mk   ufs.MkfsOpts
		cfg  Config
	}{
		{"clustered", ufs.MkfsOpts{Rotdelay: 0, Maxcontig: 15}, ConfigA()},
		{"legacy", ufs.MkfsOpts{Rotdelay: 4, Maxcontig: 1}, ConfigD()},
	} {
		variant := variant
		t.Run(variant.name, func(t *testing.T) {
			r := newRig(t, variant.mk, variant.cfg, 240<<10)
			const workers = 4
			done := 0
			var q sim.WaitQ
			for w := 0; w < workers; w++ {
				w := w
				r.s.Spawn(fmt.Sprintf("worker%d", w), func(p *sim.Proc) {
					defer func() { done++; q.WakeAll() }()
					rng := rand.New(rand.NewSource(int64(w)))
					size := 256<<10 + w*(37<<10) + 700*w // fragment tails differ per file
					maxIO := (w + 1) * (24 << 10)        // 24 KB .. 96 KB writes and reads
					shadow := make([]byte, size)
					pattern(shadow, int64(w))
					f, err := r.eng.Create(p, fmt.Sprintf("/xfer%d", w))
					if err != nil {
						t.Errorf("worker %d: create: %v", w, err)
						return
					}
					if _, err := f.Write(p, 0, shadow); err != nil {
						t.Errorf("worker %d: fill: %v", w, err)
						return
					}
					for i := 0; i < 40; i++ {
						off := rng.Intn(size)
						n := 1 + rng.Intn(maxIO)
						if off+n > size {
							n = size - off
						}
						switch i % 4 {
						case 0, 1:
							b := make([]byte, n)
							rng.Read(b)
							if _, err := f.Write(p, int64(off), b); err != nil {
								t.Errorf("worker %d op %d: write: %v", w, i, err)
								return
							}
							copy(shadow[off:], b)
						case 2:
							// Cold read: drop the cache so the range comes
							// back through fresh transfers.
							f.Purge(p)
							fallthrough
						case 3:
							got := make([]byte, n)
							if _, err := f.Read(p, int64(off), got); err != nil {
								t.Errorf("worker %d op %d: read: %v", w, i, err)
								return
							}
							if !bytes.Equal(got, shadow[off:off+n]) {
								t.Errorf("worker %d op %d: read of [%d,%d) diverges from the shadow", w, i, off, off+n)
								return
							}
						}
					}
					f.Purge(p)
					got := make([]byte, size)
					if _, err := f.Read(p, 0, got); err != nil || !bytes.Equal(got, shadow) {
						t.Errorf("worker %d: final cold read diverges from the shadow (err %v)", w, err)
					}
				})
			}
			r.run(t, func(p *sim.Proc) {
				for done < workers {
					p.Block(&q)
				}
			})
			if r.eng.xfers.held == 0 {
				t.Fatal("no transfer buffer came back to the free list")
			}
			verifyOK(t, r)
		})
	}
}
