package ufsclust

import (
	"bytes"
	"fmt"
	"testing"

	"ufsclust/internal/disk"
	"ufsclust/internal/sim"
	"ufsclust/internal/vol"
)

// volMember is a small drive template for array machines: 200 cyl x
// 8 heads x 64 spt = 102400 sectors = 50 MB per member, so mkfs over a
// multi-member array stays quick.
func volMember() disk.Params {
	p := disk.DefaultParams()
	p.Geom = disk.UniformGeometry(200, 8, 64, 3600)
	return p
}

// TestUFSOnEveryVolumeLevel runs the full stack — engine, UFS, driver,
// volume, member disks — at every RAID level: write a 1 MB file, purge
// the cache, read it back, fsck the array, and (on redundant levels)
// check the redundancy invariant over the whole composed device.
func TestUFSOnEveryVolumeLevel(t *testing.T) {
	for _, cfg := range []vol.Config{
		{Level: vol.Concat, Members: 1},
		{Level: vol.Concat, Members: 2},
		{Level: vol.RAID0, Members: 3},
		{Level: vol.RAID1, Members: 2},
		{Level: vol.RAID5, Members: 4},
	} {
		cfg := cfg
		t.Run(fmt.Sprintf("%s-x%d", cfg.Level, cfg.Members), func(t *testing.T) {
			m, err := New(RunA(),
				WithSeed(3),
				WithDiskParams(volMember()),
				WithVolume(cfg))
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			if m.Vol == nil || m.Dev != disk.Device(m.Vol) {
				t.Fatal("volume machine did not route Dev through the volume")
			}
			if m.Dev.Channels() != cfg.Members {
				t.Fatalf("device exposes %d channels, want %d", m.Dev.Channels(), cfg.Members)
			}
			data := make([]byte, 1<<20)
			for i := range data {
				data[i] = byte(i*13 + int(cfg.Level))
			}
			err = m.Run(func(p *sim.Proc) {
				f, err := m.Engine.Create(p, "/vol")
				if err != nil {
					t.Errorf("create: %v", err)
					return
				}
				f.Write(p, 0, data)
				f.Fsync(p)
				f.Purge(p)
				got := make([]byte, len(data))
				f.Read(p, 0, got)
				if !bytes.Equal(got, data) {
					t.Error("data corrupted through the array")
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := m.Fsck()
			if err != nil || !rep.Clean() {
				t.Fatalf("fsck: %v %v", err, rep.Problems)
			}
			if cfg.Level == vol.RAID1 || cfg.Level == vol.RAID5 {
				if bad, first := m.Vol.CheckParity(); bad > 0 {
					t.Fatalf("%d bad redundancy spans after the run: %v", bad, first)
				}
			}
			// Striped and mirrored levels spread a 1 MB file across
			// every spindle; concat fills members in address order, so
			// only member 0 need be busy there.
			if cfg.Level != vol.Concat {
				for i, d := range m.Vol.Members() {
					if d.Stats.Writes == 0 {
						t.Fatalf("member sd%d of %s saw no writes", i, cfg.Level)
					}
				}
			}
		})
	}
}

// TestVolumeSnapshotBoot moves a populated RAID-1 array between
// machines via member snapshots — the volume side of WithImages.
func TestVolumeSnapshotBoot(t *testing.T) {
	cfg := vol.Config{Level: vol.RAID1, Members: 2}
	data := make([]byte, 256<<10)
	for i := range data {
		data[i] = byte(i * 31)
	}
	m, err := New(RunA(), WithSeed(5), WithDiskParams(volMember()), WithVolume(cfg))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	err = m.Run(func(p *sim.Proc) {
		f, err := m.Engine.Create(p, "/keep")
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		f.Write(p, 0, data)
		f.Fsync(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	m.FS.SyncImage()
	imgs := m.Vol.Snapshot()

	m2, err := New(RunA(), WithSeed(6), WithDiskParams(volMember()),
		WithVolume(cfg), WithImages(imgs...))
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	err = m2.Run(func(p *sim.Proc) {
		f, err := m2.Engine.Open(p, "/keep")
		if err != nil {
			t.Errorf("open on rebooted array: %v", err)
			return
		}
		got := make([]byte, len(data))
		f.Read(p, 0, got)
		if !bytes.Equal(got, data) {
			t.Error("file bytes diverged across the snapshot boot")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m2.Fsck()
	if err != nil || !rep.Clean() {
		t.Fatalf("fsck after snapshot boot: %v %v", err, rep.Problems)
	}
}
