package ufs

import (
	"bytes"
	"testing"

	"ufsclust/internal/disk"
)

// Native fuzz targets for the on-disk decoders. Each must survive any
// input without panicking; seed corpora live in testdata/fuzz/.
// scripts/check.sh runs each for a few seconds:
//
//	go test ./internal/ufs -run '^$' -fuzz '^FuzzUnmarshalCG$' -fuzztime 5s

// FuzzUnmarshalCG decodes arbitrary bytes as a group of an arbitrary
// geometry. Short data must be an error; anything accepted must
// re-encode to the bytes it was decoded from.
func FuzzUnmarshalCG(f *testing.F) {
	sb := &Superblock{Bsize: 8192, Ipg: 64, Fpg: 2048}
	f.Add(NewCG(sb, 0).Marshal(sb), sb.Ipg, sb.Fpg)
	f.Add([]byte{0x55, 0x02, 0x09, 0}, int32(8), int32(8))
	f.Fuzz(func(t *testing.T, data []byte, ipg, fpg int32) {
		sb := &Superblock{Ipg: ipg, Fpg: fpg}
		cg, err := UnmarshalCG(sb, data)
		if len(data) < cgHdrSize && err == nil {
			t.Fatalf("accepted %d bytes, shorter than a header", len(data))
		}
		if err != nil {
			return
		}
		n := cgHdrSize + len(cg.Inosused) + len(cg.Blksfree)
		sb.Bsize = int32(n)
		out := make([]byte, n)
		cg.MarshalInto(sb, out)
		if !bytes.Equal(out, data[:n]) {
			t.Fatalf("re-encoding differs:\n got %x\nwant %x", out, data[:n])
		}
	})
}

// FuzzUnmarshalDinode round-trips arbitrary inode slots: decode, then
// encode, must give back the field bytes with the pad zeroed, and
// decoding that again must give the same dinode.
func FuzzUnmarshalDinode(f *testing.F) {
	var seed [DinodeSize]byte
	d := Dinode{Mode: ModeReg | 0o644, Nlink: 1, Size: 8192, Blocks: 8}
	d.DB[0] = 4096
	d.MarshalInto(seed[:])
	f.Add(seed[:])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var slot [DinodeSize]byte
		copy(slot[:], data)
		di := UnmarshalDinode(slot[:])
		var out [DinodeSize]byte
		di.MarshalInto(out[:])
		want := slot
		clear(want[diEnd:])
		if out != want {
			t.Fatalf("re-encoding differs:\n got %x\nwant %x", out, want)
		}
		if back := UnmarshalDinode(out[:]); back != di {
			t.Fatalf("round trip:\n%+v\n%+v", di, back)
		}
	})
}

// FuzzParseDirents parses arbitrary directory blocks. Whatever it
// accepts must tile the block exactly with in-bounds records.
func FuzzParseDirents(f *testing.F) {
	blk := make([]byte, 512)
	n := putDirent(blk, RootIno, ".")
	putDirentLast(blk[n:], RootIno, "..", len(blk)-n)
	f.Add(blk)
	tail := make([]byte, 64)
	putDirentLast(tail, RootIno, ".", 60)
	f.Add(tail)
	f.Fuzz(func(t *testing.T, data []byte) {
		ents, err := parseDirents(data)
		if err != nil {
			return
		}
		off := 0
		for _, e := range ents {
			if e.off != off || e.reclen < 8 || e.off+e.reclen > len(data) || 8+len(e.Name) > e.reclen {
				t.Fatalf("entry %+v does not tile the block at offset %d", e, off)
			}
			off += e.reclen
		}
		if off != len(data) {
			t.Fatalf("entries cover %d of %d bytes", off, len(data))
		}
	})
}

// FuzzRepair runs Repair over mutations of the shared offline image.
// The input is read as 4-byte edits: which block of the image to hit
// (the primary superblock, group headers, the inode blocks in use,
// directory and indirect blocks), a 2-byte offset into it and the byte
// to store there. Repair must not panic, its repaired image must pass
// Fsck, a second Repair must change nothing, and an input Fsck calls
// clean must get no fix.
func FuzzRepair(f *testing.F) {
	o := sharedOfflineImage(f)
	targets := o.targets(f)
	f.Add([]byte{})
	f.Add([]byte{2, 0x30, 0, 0xff})
	f.Fuzz(func(t *testing.T, edits []byte) {
		d, _ := o.fresh(t)
		sector := make([]byte, disk.SectorSize)
		for ; len(edits) >= 4; edits = edits[4:] {
			tg := targets[int(edits[0])%len(targets)]
			off := (int(edits[1]) | int(edits[2])<<8) % tg.size
			at := o.sb.FsbToDb(tg.fsbn) + int64(off/disk.SectorSize)
			d.ReadImage(at, sector)
			sector[off%disk.SectorSize] = edits[3]
			d.WriteImage(at, sector)
		}
		chk, err := Fsck(d)
		inputClean := err == nil && chk.Clean()
		rep, err := Repair(d)
		if err != nil {
			t.Fatalf("repair: %v", err)
		}
		if !rep.Clean() {
			t.Fatalf("repaired image not clean: %v\nfixes: %v", rep.Check.Problems, rep.Fixes)
		}
		if inputClean && len(rep.Fixes) != 0 {
			t.Fatalf("fsck-clean input got fixes: %v", rep.Fixes)
		}
		img := imageSHA(t, d)
		again, err := Repair(d)
		if err != nil {
			t.Fatalf("second repair: %v", err)
		}
		if len(again.Fixes) != 0 {
			t.Fatalf("second repair applied fixes: %v\nfirst: %v", again.Fixes, rep.Fixes)
		}
		if imageSHA(t, d) != img {
			t.Fatalf("second repair changed the image; first fixes: %v", rep.Fixes)
		}
	})
}
