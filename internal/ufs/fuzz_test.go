package ufs

import (
	"bytes"
	"testing"
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
