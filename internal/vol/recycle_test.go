package vol_test

import (
	"bytes"
	"fmt"
	"testing"

	"ufsclust/internal/disk"
	"ufsclust/internal/sim"
	"ufsclust/internal/vol"
)

// raid5Storm is the array the recycling tests write to: 4 members, an
// 8 KB (16-sector) stripe unit, so a row holds 48 data sectors.
var raid5Storm = vol.Config{Level: vol.RAID5, Members: 4, StripeKB: 8}

const stormRow = 48 // data sectors per row of raid5Storm

// TestRAID5PartialRowStormRecyclesScratch drives a long run of partial-row
// writes — every one a read-modify-write, some straddling two rows so two
// folds share the scratch list at once — through buffers that are
// recycled, never re-zeroed, from write to write. After every write the
// whole array must satisfy the parity equation, and both the written
// range and a random other range must read back as a shadow model says.
func TestRAID5PartialRowStormRecyclesScratch(t *testing.T) {
	s, v := newVol(t, 17, raid5Storm)
	total := v.Geom().TotalSectors()
	shadow := make([]byte, total*disk.SectorSize)
	rnd := s.Rand
	check := func(p *sim.Proc, i int, sec, n int64) bool {
		got := make([]byte, n*disk.SectorSize)
		if err := volIO(p, v, sec, got, false); err != nil {
			t.Errorf("write %d: read-back of [%d,%d): %v", i, sec, sec+n, err)
			return false
		}
		if !bytes.Equal(got, shadow[sec*disk.SectorSize:(sec+n)*disk.SectorSize]) {
			t.Errorf("write %d: read-back of [%d,%d) diverges from the shadow", i, sec, sec+n)
			return false
		}
		return true
	}
	writes := 300
	if testing.Short() {
		writes = 60
	}
	run(t, s, func(p *sim.Proc) {
		for i := 0; i < writes; i++ {
			n := 1 + rnd.Int63n(stormRow-1) // never a whole row
			sec := rnd.Int63n(total - n + 1)
			buf := make([]byte, n*disk.SectorSize)
			fill(buf, int64(i))
			if err := volIO(p, v, sec, buf, true); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
			copy(shadow[sec*disk.SectorSize:], buf)
			if bad, first := v.CheckParity(); bad > 0 {
				t.Errorf("write %d [%d,%d): %d bad parity spans: %v", i, sec, sec+n, bad, first)
				return
			}
			rn := 1 + rnd.Int63n(2*stormRow)
			if !check(p, i, sec, n) || !check(p, i, rnd.Int63n(total-rn+1), rn) {
				return
			}
		}
	})
	if v.Stats.FullStripeWrites != 0 || v.Stats.ParityRMWRows < int64(writes) {
		t.Fatalf("storm must run only read-modify-writes: full-stripe=%d rmw=%d",
			v.Stats.FullStripeWrites, v.Stats.ParityRMWRows)
	}
	if v.ScratchLen() == 0 {
		t.Fatal("no scratch buffer came back to the free list")
	}
}

// TestRAID5ConcurrentStormKeepsData runs four writers at once, each
// owning one 12-sector slot of every row, so their read-modify-writes
// share rows (serialized by the row locks) and share the scratch list
// while other rows' folds are still in flight. A buffer returned to the
// list before its last transfer finished would surface as a parity
// violation or as another writer's bytes in a slot.
func TestRAID5ConcurrentStormKeepsData(t *testing.T) {
	s, v := newVol(t, 19, raid5Storm)
	total := v.Geom().TotalSectors()
	rows := total / stormRow
	shadow := make([]byte, total*disk.SectorSize)
	const writers, slot = 4, stormRow / 4
	done := 0
	var wq sim.WaitQ
	for w := 0; w < writers; w++ {
		w := w
		s.Spawn(fmt.Sprintf("writer%d", w), func(p *sim.Proc) {
			for i := 0; i < 80; i++ {
				row := s.Rand.Int63n(rows)
				o := s.Rand.Int63n(slot)
				n := 1 + s.Rand.Int63n(slot-o)
				sec := row*stormRow + int64(w)*slot + o
				buf := make([]byte, n*disk.SectorSize)
				fill(buf, int64(w*1000+i))
				if err := volIO(p, v, sec, buf, true); err != nil {
					t.Errorf("writer %d op %d: %v", w, i, err)
					return
				}
				copy(shadow[sec*disk.SectorSize:], buf)
			}
			done++
			wq.WakeAll()
		})
	}
	s.Spawn("checker", func(p *sim.Proc) {
		for done < writers {
			p.Block(&wq)
		}
		got := make([]byte, len(shadow))
		if err := volIO(p, v, 0, got, false); err != nil {
			t.Errorf("read-back: %v", err)
			return
		}
		if !bytes.Equal(got, shadow) {
			t.Error("concurrent storm: online read-back diverges from the shadow")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if bad, first := v.CheckParity(); bad > 0 {
		t.Fatalf("%d bad parity spans after the concurrent storm: %v", bad, first)
	}
	if v.ScratchLen() == 0 {
		t.Fatal("no scratch buffer came back to the free list")
	}
}
