package ufs

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"sync"
	"testing"

	"ufsclust/internal/disk"
	"ufsclust/internal/driver"
	"ufsclust/internal/sim"
)

// offlineImage is a populated small-geometry image shared by the
// offline-pass tests: a one-block file, a fragment-tailed file, files
// reaching into single- and double-indirect range, a subdirectory with
// a file in it, a fast symlink, and a directory grown past its direct
// blocks into IB[0].
type offlineImage struct {
	img *disk.Image
	sb  *Superblock
	ino map[string]int32 // path -> inode number
}

var (
	offlineOnce sync.Once
	offlineImg  *offlineImage
	offlineErr  string
)

// sharedOfflineImage builds the image once per test binary.
func sharedOfflineImage(tb testing.TB) *offlineImage {
	tb.Helper()
	offlineOnce.Do(func() { offlineImg, offlineErr = buildOfflineImage() })
	if offlineErr != "" {
		tb.Fatal(offlineErr)
	}
	return offlineImg
}

func buildOfflineImage() (*offlineImage, string) {
	s := sim.New(1)
	defer s.Close()
	p := disk.DefaultParams()
	p.Geom = smallGeom()
	d := disk.New(s, "d0", p)
	if _, err := Mkfs(d, MkfsOpts{}); err != nil {
		return nil, "mkfs: " + err.Error()
	}
	fs, err := Mount(s, nil, driver.New(s, d, nil, driver.DefaultConfig()), MountOpts{})
	if err != nil {
		return nil, "mount: " + err.Error()
	}
	bsize := int64(fs.SB.Bsize)
	nindir := fs.SB.NindirPerBlock()
	o := &offlineImage{ino: map[string]int32{}}
	var fail string
	s.Spawn("populate", func(p *sim.Proc) {
		// file creates path and allocates the given logical blocks
		// (full blocks) and sets its size.
		file := func(path string, size int64, lbns ...int64) {
			ip, err := fs.Create(p, path)
			if err != nil {
				fail = "create " + path + ": " + err.Error()
				return
			}
			for _, lbn := range lbns {
				n := bsize
				if rest := size - lbn*bsize; rest < n {
					n = rest
				}
				if _, err := fs.BmapAlloc(p, ip, lbn, int(n)); err != nil {
					fail = "alloc " + path + ": " + err.Error()
					return
				}
			}
			ip.D.Size = size
			ip.MarkDirty()
			o.ino[path] = ip.Ino
		}
		file("/small", bsize, 0)
		file("/tail", 2500, 0)
		var single []int64
		for lbn := int64(0); lbn < NDADDR+2; lbn++ {
			single = append(single, lbn)
		}
		file("/single", (NDADDR+2)*bsize, single...)
		file("/double", (NDADDR+nindir+1)*bsize, 0, NDADDR+nindir)
		sub, err := fs.Mkdir(p, "/sub")
		if err != nil {
			fail = "mkdir /sub: " + err.Error()
			return
		}
		o.ino["/sub"] = sub.Ino
		file("/sub/f", bsize, 0)
		if err := fs.Symlink(p, "/link", "/sub/f"); err != nil {
			fail = "symlink: " + err.Error()
			return
		}
		dir, err := fs.Mkdir(p, "/d")
		if err != nil {
			fail = "mkdir /d: " + err.Error()
			return
		}
		o.ino["/d"] = dir.Ino
		// 264-byte records: 31 per block, so 420 entries need 14
		// blocks and the last two sit behind IB[0].
		name := strings.Repeat("n", 250)
		for i := 0; i < 420; i++ {
			if _, err := fs.Create(p, "/d/"+name+itoa(i)); err != nil {
				fail = "create in /d: " + err.Error()
				return
			}
		}
		root, err := fs.Iget(p, RootIno)
		if err != nil {
			fail = "iget root: " + err.Error()
			return
		}
		defer fs.Iput(p, root)
		if o.ino["/link"], err = fs.DirLookup(p, root, "link"); err != nil {
			fail = "lookup /link: " + err.Error()
		}
	})
	if err := s.Run(); err != nil {
		return nil, "sim: " + err.Error()
	}
	if fail != "" {
		return nil, fail
	}
	fs.SyncImage()
	o.sb = fs.SB
	o.img = d.Snapshot()
	return o, ""
}

// fresh returns a disk holding a private copy of the image, plus a rig
// whose readDinode/writeDinode edit it.
func (o *offlineImage) fresh(tb testing.TB) (*disk.Disk, *testRig) {
	tb.Helper()
	s := sim.New(1)
	tb.Cleanup(s.Close)
	p := disk.DefaultParams()
	p.Geom = smallGeom()
	d := disk.New(s, "d0", p)
	d.Restore(o.img)
	sb := *o.sb
	return d, &testRig{s: s, d: d, sb: &sb}
}

// fuzzTarget is a stretch of the image FuzzRepair edits.
type fuzzTarget struct {
	fsbn int32
	size int
}

// targets lists the metadata FuzzRepair edits: the primary superblock,
// the first two group headers, the inode blocks in use, and the
// directory and indirect blocks of the populated files.
func (o *offlineImage) targets(tb testing.TB) []fuzzTarget {
	_, r := o.fresh(tb)
	sb := r.sb
	ts := []fuzzTarget{{sbFragOffset, SBSize}, {sb.CgHeader(0), int(sb.Bsize)}, {sb.CgHeader(1), int(sb.Bsize)}}
	seen := map[int32]bool{}
	add := func(fsbn int32) {
		if fsbn != 0 && !seen[fsbn] {
			seen[fsbn] = true
			ts = append(ts, fuzzTarget{fsbn, int(sb.Bsize)})
		}
	}
	for _, path := range []string{"/single", "/small", "/tail", "/double", "/sub", "/sub/f", "/link", "/d"} {
		add(sb.InoToFsba(o.ino[path]))
	}
	root, sub, d := r.readDinode(RootIno), r.readDinode(o.ino["/sub"]), r.readDinode(o.ino["/d"])
	add(root.DB[0])
	add(sub.DB[0])
	add(d.DB[0])
	add(d.DB[NDADDR-1])
	add(d.IB[0])
	add(r.readDinode(o.ino["/single"]).IB[0])
	ib1 := r.readDinode(o.ino["/double"]).IB[1]
	add(ib1)
	add(getIndir(r.block(ib1), 0))
	return ts
}

// block reads one block of the image.
func (r *testRig) block(fsbn int32) []byte {
	b := make([]byte, r.sb.Bsize)
	r.d.ReadImage(r.sb.FsbToDb(fsbn), b)
	return b
}

// setBlock writes one block of the image.
func (r *testRig) setBlock(fsbn int32, b []byte) { r.d.WriteImage(r.sb.FsbToDb(fsbn), b) }

// editDinode applies fn to inode ino on the image.
func (r *testRig) editDinode(ino int32, fn func(di *Dinode)) {
	di := r.readDinode(ino)
	fn(&di)
	r.writeDinode(ino, di)
}

// editDirent applies fn to the named entry in block 0 of directory
// dir: fn gets the block, the entry's offset, and the block's entries
// with the named one's index.
func (r *testRig) editDirent(tb testing.TB, dir int32, name string, fn func(blk []byte, off int, ents []Dirent, i int)) {
	tb.Helper()
	fsbn := r.readDinode(dir).DB[0]
	blk := r.block(fsbn)
	ents, err := parseDirents(blk)
	if err != nil {
		tb.Fatal(err)
	}
	for i, e := range ents {
		if e.Ino != 0 && e.Name == name {
			fn(blk, e.off, ents, i)
			r.setBlock(fsbn, blk)
			return
		}
	}
	tb.Fatalf("no entry %q in directory %d", name, dir)
}

// freeBlock is the last block of the last group, which the populated
// image leaves free.
func (r *testRig) freeBlock() int32 {
	return r.sb.CgBase(r.sb.Ncg-1) + (r.sb.Fpg/r.sb.Frag-1)*r.sb.Frag
}

// offlineCase is one mutation of the shared image.
type offlineCase struct {
	name   string
	mutate func(tb testing.TB, r *testRig, o *offlineImage)
}

// offlineCorpus holds one mutation per kind of fix Repair applies.
var offlineCorpus = []offlineCase{
	{"clean", func(testing.TB, *testRig, *offlineImage) {}},
	{"metadata pointer", func(_ testing.TB, r *testRig, o *offlineImage) {
		r.editDinode(o.ino["/small"], func(di *Dinode) { di.DB[0] = r.sb.CgHeader(0) })
	}},
	{"duplicate claim", func(_ testing.TB, r *testRig, o *offlineImage) {
		shared := r.readDinode(o.ino["/small"]).DB[0]
		r.editDinode(o.ino["/sub/f"], func(di *Dinode) { di.DB[0] = shared })
	}},
	{"pointer past EOF", func(_ testing.TB, r *testRig, o *offlineImage) {
		r.editDinode(o.ino["/small"], func(di *Dinode) { di.DB[5] = r.freeBlock() })
	}},
	{"indirect on a one-block file", func(_ testing.TB, r *testRig, o *offlineImage) {
		r.editDinode(o.ino["/small"], func(di *Dinode) { di.IB[0] = r.freeBlock() })
	}},
	{"bad IB[0]", func(_ testing.TB, r *testRig, o *offlineImage) {
		r.editDinode(o.ino["/single"], func(di *Dinode) { di.IB[0] = r.sb.CgIblock(0) })
	}},
	{"bad IB[1]", func(_ testing.TB, r *testRig, o *offlineImage) {
		r.editDinode(o.ino["/double"], func(di *Dinode) { di.IB[1] = r.sb.CgHeader(1) })
	}},
	{"bad second-level pointer", func(_ testing.TB, r *testRig, o *offlineImage) {
		ib1 := r.readDinode(o.ino["/double"]).IB[1]
		blk := r.block(ib1)
		putIndir(blk, 0, r.sb.CgHeader(0))
		r.setBlock(ib1, blk)
	}},
	{"bad data pointer in IB[0]", func(_ testing.TB, r *testRig, o *offlineImage) {
		ib := r.readDinode(o.ino["/single"]).IB[0]
		blk := r.block(ib)
		putIndir(blk, 1, r.readDinode(o.ino["/small"]).DB[0])
		r.setBlock(ib, blk)
	}},
	{"di_blocks", func(_ testing.TB, r *testRig, o *offlineImage) {
		r.editDinode(o.ino["/single"], func(di *Dinode) { di.Blocks += 3 })
	}},
	{"directory hole at block 0", func(_ testing.TB, r *testRig, o *offlineImage) {
		r.editDinode(o.ino["/sub"], func(di *Dinode) { di.DB[0] = 0 })
	}},
	{"directory hole at a later block", func(_ testing.TB, r *testRig, o *offlineImage) {
		r.editDinode(o.ino["/d"], func(di *Dinode) { di.DB[10] = 0 })
	}},
	{"directory hole behind IB[0]", func(_ testing.TB, r *testRig, o *offlineImage) {
		ib := r.readDinode(o.ino["/d"]).IB[0]
		blk := r.block(ib)
		putIndir(blk, 0, 0)
		r.setBlock(ib, blk)
	}},
	{"directory size not a block multiple", func(_ testing.TB, r *testRig, o *offlineImage) {
		r.editDinode(o.ino["/sub"], func(di *Dinode) { di.Size += 100 })
	}},
	{"unparseable dirent block", func(_ testing.TB, r *testRig, o *offlineImage) {
		fsbn := r.readDinode(o.ino["/d"]).DB[2]
		blk := r.block(fsbn)
		blk[4], blk[5] = 3, 0
		r.setBlock(fsbn, blk)
	}},
	{"wrong dot and dotdot", func(tb testing.TB, r *testRig, o *offlineImage) {
		sub := o.ino["/sub"]
		r.editDirent(tb, sub, ".", func(blk []byte, off int, _ []Dirent, _ int) { putIndir(blk[off:], 0, o.ino["/d"]) })
		r.editDirent(tb, sub, "..", func(blk []byte, off int, _ []Dirent, _ int) { putIndir(blk[off:], 0, sub) })
	}},
	{"missing dot", func(tb testing.TB, r *testRig, o *offlineImage) {
		r.editDirent(tb, o.ino["/sub"], ".", func(blk []byte, off int, _ []Dirent, _ int) { blk[off+8] = 'x' })
	}},
	{"dead entry", func(tb testing.TB, r *testRig, o *offlineImage) {
		r.editDirent(tb, RootIno, "tail", func(blk []byte, off int, _ []Dirent, _ int) { putIndir(blk[off:], 0, r.sb.Ipg-1) })
	}},
	{"hard-linked directory", func(tb testing.TB, r *testRig, o *offlineImage) {
		r.editDirent(tb, o.ino["/sub"], "f", func(blk []byte, off int, _ []Dirent, _ int) { putIndir(blk[off:], 0, o.ino["/d"]) })
	}},
	{"orphan", func(tb testing.TB, r *testRig, o *offlineImage) {
		// Unlink /sub the way DirRemove does: merge its record into
		// the one before it.
		r.editDirent(tb, RootIno, "sub", func(blk []byte, _ int, ents []Dirent, i int) {
			prev := ents[i-1]
			n := prev.reclen + ents[i].reclen
			blk[prev.off+4], blk[prev.off+5] = byte(n), byte(n>>8)
		})
	}},
	{"bad link count", func(_ testing.TB, r *testRig, o *offlineImage) {
		r.editDinode(o.ino["/small"], func(di *Dinode) { di.Nlink = 5 })
	}},
	{"impossible size", func(_ testing.TB, r *testRig, o *offlineImage) {
		r.editDinode(o.ino["/small"], func(di *Dinode) { di.Size = r.sb.MaxFileBlocks()*int64(r.sb.Bsize) + 1 })
	}},
	{"unknown mode", func(_ testing.TB, r *testRig, o *offlineImage) {
		r.editDinode(o.ino["/small"], func(di *Dinode) { di.Mode = 0x1000 | 0o644 })
	}},
	{"reserved inode", func(_ testing.TB, r *testRig, o *offlineImage) {
		r.editDinode(1, func(di *Dinode) { di.Mode = ModeReg | 0o644; di.Nlink = 1 })
	}},
	{"symlink claims fragments", func(_ testing.TB, r *testRig, o *offlineImage) {
		r.editDinode(o.ino["/link"], func(di *Dinode) { di.Blocks = 8 })
	}},
	{"smashed group header", func(_ testing.TB, r *testRig, o *offlineImage) {
		r.setBlock(r.sb.CgHeader(0), make([]byte, r.sb.Bsize))
	}},
	{"lost primary superblock", func(_ testing.TB, r *testRig, o *offlineImage) {
		r.d.WriteImage(r.sb.FsbToDb(r.sb.CgSBlock(0)), make([]byte, SBSize))
	}},
	{"lost root block", func(_ testing.TB, r *testRig, o *offlineImage) {
		r.editDinode(RootIno, func(di *Dinode) { di.DB[0] = 0 })
	}},
}

// offlineGolden pins what Repair did to each corpus case: the sha256
// of its fix log (lines joined by newlines), the sha256 of the repaired
// image as DumpImage writes it, and the closing Check verdict.
var offlineGolden = map[string]struct {
	fixes int
	log   string
	image string
	clean bool
}{
	"clean":                               {0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "59833c6cb1514e7d210871ebd7243628d40ff630d29244f43a73d64125d8cd36", true},
	"metadata pointer":                    {2, "0f0c6a6e65d8bff7952cd2be837758fbab3d33bf86a50bd6acc37fb719ac28b3", "d5f2c01eabd58a5eb2b87bb80786c7fe2803c4805d046c6262e4c159387a1228", true},
	"duplicate claim":                     {2, "ab9af4b88ef1fa437f64a5907cd64a554078e0334f80ce449e12782d979d7e98", "b854c859912ad55314e6458787832a66d929285fd463ad07f8b807aea52dd252", true},
	"pointer past EOF":                    {1, "5a2ddab8550f2db25adf280bd66835890245cec2cf31b0f631413a7ac16b6fc1", "59833c6cb1514e7d210871ebd7243628d40ff630d29244f43a73d64125d8cd36", true},
	"indirect on a one-block file":        {1, "c1e5ed5d546a76cc589d49f5ac113615a4365917a4a10a721e2845d5423871fe", "59833c6cb1514e7d210871ebd7243628d40ff630d29244f43a73d64125d8cd36", true},
	"bad IB[0]":                           {2, "3b1a59e2cf2a71ebf4c6035303ce2075eb6bdd57e0ac5ab36b698ef550ee7c29", "30ff8fb12ac5b79baeb9b79962a979d4f1a738269601b144901db0f334806076", true},
	"bad IB[1]":                           {2, "d6ea9d2e7622661fbb9ef3cdcca2605995817e3a2527a9cc855821f951c73ce8", "fbb40dd1ed32b52f6584bef30ae535f0806b51d84d73beeacb6726c62c8262ea", true},
	"bad second-level pointer":            {2, "54516e558b207965900c793b77a19879540a9f23fc12dc7d14300046bf883a06", "1df73b8511cd0e9ec7ac44c162817c187d1727c8fec5d89d45f0745a830b21c5", true},
	"bad data pointer in IB[0]":           {2, "88d4babd672a7d2624363fcb194da44d3683c9cb3798252022bb2aba8308f9d5", "7d6c2e26b5c904a6c8291438c5a82c35f08f56ccf0230c63c41d9101c1ea505b", true},
	"di_blocks":                           {1, "96f4ce43769d95e1ec4de568c41aaa6a77f53596f6bbe7f8022a4ba0ab81c161", "59833c6cb1514e7d210871ebd7243628d40ff630d29244f43a73d64125d8cd36", true},
	"directory hole at block 0":           {4, "64fa94868286c9c4a5fdec36af8d2a1cdc627416b49933147fb516b001e505ac", "3af24341f80e3edd2105f7594a3bf2d94fd5651294e5c998723086cfa9038fd7", true},
	"directory hole at a later block":     {112, "b573b9692b05e7dc8cc8aa27bf876634ac739f50e563344761c33980a2ad24f9", "6f95fa07c204f6edbb7869db66e1f393867759fb00ecf90b3d57ee3095b42409", true},
	"directory hole behind IB[0]":         {50, "21e88e73f51f720110a160af5d3289da8551d410c2f2ecd3193d009471cec41b", "3a8a22dc2de337bab9218e264599e41c762ce74bec4328df252d2ea098dd6f60", true},
	"directory size not a block multiple": {1, "0d6cf6dbfc37f957f53e7737e342c65ddde3dc1689424f5310c5f59583d8fe60", "59833c6cb1514e7d210871ebd7243628d40ff630d29244f43a73d64125d8cd36", true},
	"unparseable dirent block":            {32, "dcc16598ac9c1b74b90e2ecb17f94e5c8b7aae4d376785ca0b2b4aff3223f255", "7c4d27cae8a0fa5a2dfefb466bf08d59dc525f383c7d964d2bdc9e15f0421da3", true},
	"wrong dot and dotdot":                {2, "46eea3f1a0e728f0843f5cdae8ed2a3fe99b11496f8e9281cd6aee2491d17eca", "59833c6cb1514e7d210871ebd7243628d40ff630d29244f43a73d64125d8cd36", true},
	"missing dot":                         {2, "1ac040c73fecbb7d5643698e0b7f1a468765166ce39a33d821a72f041f7a82b1", "59833c6cb1514e7d210871ebd7243628d40ff630d29244f43a73d64125d8cd36", true},
	"dead entry":                          {2, "2053f4f0f44215b270c87ba76ff205b017ea30d43d62b1732a450fc73c3ada14", "592f2032ad21e1e0bb4ccac9f92dadffe7fe663737976bcbb778751300981aee", true},
	"hard-linked directory":               {2, "29c6236c5a0f05663c7d084e0c7ce7a84befb62a8df5f065becd0315c724a807", "74d47fc391518a2729e63b2e0ac96854de898eb2ab1727b8a8906d8b1ba102c3", true},
	"orphan":                              {3, "68ebdcdedc74843566717b0bda5c42167e39f45b22deddfe2af8d2f19f7c968f", "e0920e7733ea5e8d24a223e1c02574de4a269cb73f3474a549e9b869c4d6ccbc", true},
	"bad link count":                      {1, "ad56db413b5b58e1e437156ef6b79b1e46f12896b0e2c09cb72bf6f7d79fb080", "59833c6cb1514e7d210871ebd7243628d40ff630d29244f43a73d64125d8cd36", true},
	"impossible size":                     {2, "e4b84f0d0812132338ebc29d5c1a1c72d748801eb837ee503772bc3968d9c1e7", "5f7ffb324a933d71e7e0f343ab2552e486585097b36bd26a40fda643875ca9ea", true},
	"unknown mode":                        {2, "4e09cea5d55d1c865671ed5c701fbd035c1292117cddee0763db95dc334fba91", "5f7ffb324a933d71e7e0f343ab2552e486585097b36bd26a40fda643875ca9ea", true},
	"reserved inode":                      {1, "5ce66996102da72fb11c510c27a4617bd1b7a129d025a001d8efa77382351156", "59833c6cb1514e7d210871ebd7243628d40ff630d29244f43a73d64125d8cd36", true},
	"symlink claims fragments":            {1, "bce4ef062ecd49fec45149becaca3af34d3f7f739a1d39cbb214d37bcc50db23", "59833c6cb1514e7d210871ebd7243628d40ff630d29244f43a73d64125d8cd36", true},
	"smashed group header":                {0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "59833c6cb1514e7d210871ebd7243628d40ff630d29244f43a73d64125d8cd36", true},
	"lost primary superblock":             {1, "f4d2e509aadb189e8f28d44b6749926a29ad00f72f3f43f1873c6ec1f68996a9", "59833c6cb1514e7d210871ebd7243628d40ff630d29244f43a73d64125d8cd36", true},
	"lost root block":                     {430, "fadb9241372cbfe5946fc756b995860c4dcc6d3fe43b9cdd1364723839522b33", "2527d9a22b41255f3b37ffbe9fbae73d487ca303b432c77acfac24c5d2328caa", true},
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

func imageSHA(tb testing.TB, d *disk.Disk) string {
	tb.Helper()
	h := sha256.New()
	if err := d.DumpImage(h); err != nil {
		tb.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRepairCorpusGolden runs Repair over every corpus mutation and
// compares its fix log, the repaired bytes and the closing verdict
// with the pinned values.
func TestRepairCorpusGolden(t *testing.T) {
	o := sharedOfflineImage(t)
	for _, c := range offlineCorpus {
		t.Run(strings.ReplaceAll(c.name, " ", "_"), func(t *testing.T) {
			d, r := o.fresh(t)
			c.mutate(t, r, o)
			rep, err := Repair(d)
			if err != nil {
				t.Fatalf("repair: %v", err)
			}
			log := sha([]byte(strings.Join(rep.Fixes, "\n")))
			img := imageSHA(t, d)
			want, ok := offlineGolden[c.name]
			if !ok || want.fixes != len(rep.Fixes) || want.log != log || want.image != img || want.clean != rep.Clean() {
				shown := rep.Fixes[:min(len(rep.Fixes), 8)]
				t.Errorf("golden mismatch; got\n\t%q: {%d, %q, %q, %v},\nfirst fixes:\n\t%s",
					c.name, len(rep.Fixes), log, img, rep.Clean(), strings.Join(shown, "\n\t"))
			}
		})
	}
}

// corpusCase returns the named corpus mutation.
func corpusCase(tb testing.TB, name string) offlineCase {
	tb.Helper()
	for _, c := range offlineCorpus {
		if c.name == name {
			return c
		}
	}
	tb.Fatalf("no corpus case %q", name)
	return offlineCase{}
}

// TestFsckReportsWhatRepairFixes covers faults no bitmap or count
// check reveals, or reveals only as a mismatch elsewhere: a pointer
// past the end of a one-block file, a size no pointer tree can
// address, and an IB[0] on a one-block file. Repair fixes each, so
// Fsck must name the broken rule itself.
func TestFsckReportsWhatRepairFixes(t *testing.T) {
	o := sharedOfflineImage(t)
	for _, c := range []struct{ corpus, want string }{
		{"pointer past EOF", "block 5 (fsbn %d) beyond size 8192"},
		{"impossible size", "impossible size"},
		{"indirect on a one-block file", "indirect pointer IB[0] (fsbn %d) beyond size 8192"},
	} {
		t.Run(strings.ReplaceAll(c.corpus, " ", "_"), func(t *testing.T) {
			d, r := o.fresh(t)
			corpusCase(t, c.corpus).mutate(t, r, o)
			rep, err := Fsck(d)
			if err != nil {
				t.Fatal(err)
			}
			want := c.want
			if strings.Contains(want, "%d") {
				want = strings.ReplaceAll(want, "%d", itoa(int(r.freeBlock())))
			}
			for _, p := range rep.Problems {
				if strings.Contains(p, want) {
					return
				}
			}
			t.Errorf("fsck did not report %q: %v", want, rep.Problems)
		})
	}
}

// TestFsckCleanMeansNoFix holds the two passes to one rulebook on
// every corpus case: Repair applies a fix only where Fsck reported a
// problem, and its repaired image passes Fsck.
func TestFsckCleanMeansNoFix(t *testing.T) {
	o := sharedOfflineImage(t)
	for _, c := range offlineCorpus {
		t.Run(strings.ReplaceAll(c.name, " ", "_"), func(t *testing.T) {
			d, r := o.fresh(t)
			c.mutate(t, r, o)
			chk, err := Fsck(d)
			clean := err == nil && chk.Clean()
			rep, err := Repair(d)
			if err != nil {
				t.Fatal(err)
			}
			if clean && len(rep.Fixes) != 0 {
				t.Errorf("fsck-clean image got fixes: %v", rep.Fixes)
			}
			if !rep.Clean() {
				t.Errorf("repaired image not clean: %v", rep.Check.Problems)
			}
		})
	}
}

// TestRepairDropsUnwritableNames gives a directory entry a name no
// record can hold (empty, then longer than MaxNameLen) next to a fix
// that rewrites the block. Writing the entry back would panic in
// putDirent, so the directory rules drop it, and Fsck reports it.
func TestRepairDropsUnwritableNames(t *testing.T) {
	o := sharedOfflineImage(t)
	for _, namlen := range []int{0, MaxNameLen + 1} {
		d, r := o.fresh(t)
		sub := o.ino["/sub"]
		r.editDirent(t, sub, "f", func(blk []byte, off int, ents []Dirent, i int) {
			// Take the whole tail of the block so the long name fits.
			reclen := len(blk) - off
			blk[off+4], blk[off+5] = byte(reclen), byte(reclen>>8)
			blk[off+6], blk[off+7] = byte(namlen), byte(namlen>>8)
		})
		r.editDirent(t, sub, ".", func(blk []byte, off int, _ []Dirent, _ int) { putIndir(blk[off:], 0, RootIno) })
		chk, err := Fsck(d)
		if err != nil || chk.Clean() {
			t.Fatalf("namlen %d: fsck passed a bad name: %v %v", namlen, err, chk)
		}
		rep, err := Repair(d)
		if err != nil || !rep.Clean() {
			t.Fatalf("namlen %d: repair: %v %v", namlen, err, rep)
		}
		want := "ino " + itoa(int(sub)) + ": dropped entry for ino " + itoa(int(o.ino["/sub/f"]))
		found := false
		for _, f := range rep.Fixes {
			found = found || strings.HasPrefix(f, want)
		}
		if !found {
			t.Errorf("namlen %d: fix log lacks %q: %v", namlen, want, rep.Fixes)
		}
	}
}
