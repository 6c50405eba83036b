package ufs

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"strings"
	"testing"

	"ufsclust/internal/disk"
	"ufsclust/internal/sim"
)

// The hand-written dinode and cylinder-group codecs must produce the
// exact bytes encoding/binary produces for the same structs — that is
// the on-disk format every image and golden was written in. These
// tests use encoding/binary only as the oracle.

func randDinode(rng *rand.Rand) Dinode {
	d := Dinode{
		Mode: uint16(rng.Uint32()), Nlink: int16(rng.Uint32()),
		UID: rng.Uint32(), GID: rng.Uint32(),
		Size: int64(rng.Uint64()), Atime: int64(rng.Uint64()),
		Mtime: int64(rng.Uint64()), Ctime: int64(rng.Uint64()),
		Flags: rng.Uint32(), Blocks: int32(rng.Uint32()), Gen: rng.Uint32(),
	}
	for i := range d.DB {
		d.DB[i] = int32(rng.Uint32())
	}
	for i := range d.IB {
		d.IB[i] = int32(rng.Uint32())
	}
	for i := range d.Spare {
		d.Spare[i] = rng.Uint32()
	}
	return d
}

// oracle returns binary.Write's little-endian encoding of v, zero-padded
// to n bytes.
func oracle(t *testing.T, v any, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, n)
	copy(out, buf.Bytes())
	return out
}

func TestCodecSizesMatchBinary(t *testing.T) {
	if got := binary.Size(Dinode{}); got != diEnd {
		t.Fatalf("binary.Size(Dinode) = %d, codec writes %d", got, diEnd)
	}
	if got := binary.Size(CgHdr{}); got != cgHdrSize {
		t.Fatalf("binary.Size(CgHdr) = %d, cgHdrSize = %d", got, cgHdrSize)
	}
}

func TestDinodeCodecMatchesBinaryWrite(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		d := randDinode(rng)
		// Start from garbage so MarshalInto must clear the pad itself.
		got := make([]byte, DinodeSize)
		rng.Read(got)
		d.MarshalInto(got)
		if want := oracle(t, &d, DinodeSize); !bytes.Equal(got, want) {
			t.Fatalf("dinode %+v:\ncodec  %x\nbinary %x", d, got, want)
		}
		if back := UnmarshalDinode(got); back != d {
			t.Fatalf("dinode round trip:\n%+v\n%+v", d, back)
		}
	}
}

func TestCgCodecMatchesBinaryWrite(t *testing.T) {
	sb := &Superblock{Bsize: 8192, Fsize: 1024, Frag: 8, Ipg: 1984, Fpg: 16384}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		cg := NewCG(sb, int32(rng.Uint32()))
		h := &cg.CgHdr
		*h = CgHdr{
			Magic: int32(rng.Uint32()), Cgx: int32(rng.Uint32()),
			Ndblk: int32(rng.Uint32()), Nbfree: int32(rng.Uint32()),
			Nifree: int32(rng.Uint32()), Nffree: int32(rng.Uint32()),
			Ndir: int32(rng.Uint32()), Rotor: int32(rng.Uint32()),
			Frotor: int32(rng.Uint32()), Irotor: int32(rng.Uint32()),
		}
		rng.Read(cg.Inosused)
		rng.Read(cg.Blksfree)

		want := oracle(t, h, int(sb.Bsize))
		copy(want[cgHdrSize:], cg.Inosused)
		copy(want[cgHdrSize+len(cg.Inosused):], cg.Blksfree)
		got := make([]byte, sb.Bsize)
		rng.Read(got)
		cg.MarshalInto(sb, got)
		if !bytes.Equal(got, want) {
			t.Fatalf("cg %d: codec and binary.Write encodings differ", i)
		}
		if !bytes.Equal(cg.Marshal(sb), want) {
			t.Fatalf("cg %d: Marshal differs from MarshalInto", i)
		}

		h.Magic = CGMagic
		cg.MarshalInto(sb, got)
		back, err := UnmarshalCG(sb, got)
		if err != nil {
			t.Fatal(err)
		}
		if back.CgHdr != cg.CgHdr || !bytes.Equal(back.Inosused, cg.Inosused) || !bytes.Equal(back.Blksfree, cg.Blksfree) {
			t.Fatalf("cg %d: round trip lost data", i)
		}
	}
}

func TestUnmarshalCGShortData(t *testing.T) {
	sb := &Superblock{Bsize: 8192, Ipg: 64, Fpg: 2048}
	blk := NewCG(sb, 0).Marshal(sb)
	for _, n := range []int{0, 1, cgHdrSize - 1, cgHdrSize, cgHdrSize + 8 + 255} {
		if _, err := UnmarshalCG(sb, blk[:n]); err == nil {
			t.Errorf("UnmarshalCG accepted %d bytes", n)
		}
	}
}

// The codecs run on every inode touch and every block allocation; they
// must not allocate.
func TestCodecsDoNotAllocate(t *testing.T) {
	sb := &Superblock{Bsize: 8192, Ipg: 1984, Fpg: 16384}
	cg := NewCG(sb, 1)
	blk := make([]byte, sb.Bsize)
	d := randDinode(rand.New(rand.NewSource(3)))
	var raw [DinodeSize]byte
	var sink Dinode
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"Dinode.MarshalInto", func() { d.MarshalInto(raw[:]) }},
		{"UnmarshalDinode", func() { sink = UnmarshalDinode(raw[:]) }},
		{"CG.MarshalInto", func() { cg.MarshalInto(sb, blk) }},
	} {
		if n := testing.AllocsPerRun(100, c.fn); n != 0 {
			t.Errorf("%s: %.1f allocs per call, want 0", c.name, n)
		}
	}
	_ = sink
}

// TestMkfsImageHash pins a fresh file system's image byte for byte: the
// mkfs path writes every dinode and group header through the codecs.
func TestMkfsImageHash(t *testing.T) {
	s := sim.New(1)
	defer s.Close()
	d := disk.New(s, "sd0", disk.DefaultParams())
	if _, err := Mkfs(d, MkfsOpts{}); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	if err := d.DumpImage(h); err != nil {
		t.Fatal(err)
	}
	const want = "4721611e273fa4a05e305682ac710546664e2fc38bbcb7e8eded73cadae5d9df"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("mkfs image hash %s, want %s", got, want)
	}
}

// A directory block whose records leave a tail shorter than a dirent
// header used to index past the block end; it must be reported as
// corrupt instead, by parseDirents, Fsck and Repair alike.
func TestParseDirentsShortTail(t *testing.T) {
	blk := make([]byte, 8192)
	putDirentLast(blk, RootIno, ".", 8188)
	_, err := parseDirents(blk)
	if err == nil || !strings.Contains(err.Error(), "corrupt dirent at offset 8188") {
		t.Fatalf("parseDirents: err = %v, want corrupt dirent at the tail", err)
	}

	r := newRig(t, MkfsOpts{})
	r.fs.SyncImage()
	rootDi := r.readDinode(RootIno)
	r.d.WriteImage(r.sb.FsbToDb(rootDi.DB[0]), blk)
	if rep, err := Fsck(r.d); err != nil || rep.Clean() {
		t.Fatalf("fsck on a root block with a 4-byte tail: err %v, clean %v", err, err == nil && rep.Clean())
	}
	if rep := r.repair(t); !rep.Clean() {
		t.Fatalf("not clean after repair: %v", rep.Check.Problems)
	}
}
