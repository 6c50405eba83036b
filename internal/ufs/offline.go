package ufs

import (
	"fmt"

	"ufsclust/internal/detsort"
	"ufsclust/internal/disk"
)

// The offline passes, Fsck and Repair, are one walk over the image
// under one rulebook: the inode rules, the pointer rules and the
// directory rules below. Where a rule is broken Fsck reports a problem
// and Repair applies a fix, so an image Fsck calls clean is one Repair
// leaves alone. Both passes work on in-memory copies of the allocated
// inodes and normalize those copies as the rules say; only Repair
// writes anything back.

// pass is the working state of one offline pass over an image.
type pass struct {
	d      disk.Device
	sb     *Superblock
	fix    bool                // Repair: apply each fix; Fsck: only report
	log    []string            // Fsck's problems or Repair's fixes
	inodes map[int32]*offInode // the allocated inodes, by number
	frags  fragMap
	ind    [2][]byte // the indirect blocks walk is in, by level-1
	blk    []byte    // one block for everything else
}

// offInode is a pass's working copy of one allocated inode.
type offInode struct {
	Dinode
	links   int16 // directory entries naming it, counted by walkDirs
	visited bool  // a directory walkDirs has walked
	named   bool  // a directory a kept entry already names
}

func newPass(d disk.Device, sb *Superblock, fix bool) *pass {
	return &pass{d: d, sb: sb, fix: fix, inodes: map[int32]*offInode{},
		ind: [2][]byte{make([]byte, sb.Bsize), make([]byte, sb.Bsize)},
		blk: make([]byte, sb.Bsize)}
}

func (p *pass) read(fsbn int32, buf []byte)  { p.d.ReadImage(p.sb.FsbToDb(fsbn), buf) }
func (p *pass) write(fsbn int32, buf []byte) { p.d.WriteImage(p.sb.FsbToDb(fsbn), buf) }

// flag records one broken rule, worded as Fsck reports it (problem) or
// as Repair logs its fix. Both formats take args; a fix that leaves a
// trailing argument out names the ones it uses by index (%[1]d).
func (p *pass) flag(problem, fix string, args ...any) {
	f := problem
	if p.fix {
		f = fix
	}
	p.log = append(p.log, fmt.Sprintf(f, args...))
}

// drop flags an inode as beyond salvage, for the reason why, and clears
// its working copy: Repair writes the cleared inode back, and both
// passes treat it as free from then on.
func (p *pass) drop(ino int32, why string) {
	p.flag("ino %d: %s", "ino %d: cleared (%s)", ino, why)
	p.inodes[ino].Dinode = Dinode{}
}

// live returns the allocated inodes' numbers in ascending order, the
// order every rule visits them in.
func (p *pass) live() []int32 { return detsort.Keys(p.inodes) }

// checkGeometry rejects a superblock whose layout the offline passes
// cannot walk on d.
func checkGeometry(sb *Superblock, d disk.Device) error {
	ipb := int64(sb.Bsize / DinodeSize)
	meta := groupReserve + int64(sb.Frag)*(1+(int64(sb.Ipg)+ipb-1)/ipb)
	switch {
	case sb.Fsize%disk.SectorSize != 0 || sb.Frag*sb.Fsize != sb.Bsize:
		return fmt.Errorf("ufs: fragment size %d does not divide block size %d in sectors", sb.Fsize, sb.Bsize)
	case int64(sb.Ncg)*int64(sb.Fpg) != int64(sb.Size):
		return fmt.Errorf("ufs: %d groups of %d fragments do not make size %d", sb.Ncg, sb.Fpg, sb.Size)
	case int64(sb.Size)*int64(sb.Fsize) > d.Geom().TotalBytes():
		return fmt.Errorf("ufs: file system of %d fragments overruns the device", sb.Size)
	case meta >= int64(sb.Fpg) || cgHdrSize+(int64(sb.Ipg)+7)/8+(int64(sb.Fpg)+7)/8 > int64(sb.Bsize):
		return fmt.Errorf("ufs: %d inodes and %d fragments do not fit a group", sb.Ipg, sb.Fpg)
	}
	return nil
}

// load reads the inode table and applies the inode rules to every
// allocated inode. table, if not nil, receives every slot as read. The
// scan reads each inode block once, rereading only when the block
// address changes; keying on the address rather than on
// ino % InodesPerBlock keeps it correct on a corrupt superblock whose
// Ipg is not a multiple of the inodes per block.
func (p *pass) load(table []Dinode) {
	sb := p.sb
	fsba := int32(-1)
	for ino := int32(0); ino < sb.Ncg*sb.Ipg; ino++ {
		if a := sb.InoToFsba(ino); a != fsba {
			p.read(a, p.blk)
			fsba = a
		}
		off := sb.InoBlockOff(ino)
		di := UnmarshalDinode(p.blk[off : off+DinodeSize])
		if table != nil {
			table[ino] = di
		}
		if di.Allocated() {
			p.inodes[ino] = &offInode{Dinode: di}
		}
	}
	for _, ino := range p.live() {
		p.inodeRules(ino, p.inodes[ino])
	}
}

// inodeRules holds an inode's own fields to the rules. A reserved
// number, an unknown mode or an impossible size put it beyond salvage;
// a fast symlink claims no fragments; a directory holds whole blocks,
// at least one.
func (p *pass) inodeRules(ino int32, ip *offInode) {
	bsize := int64(p.sb.Bsize)
	switch f := ip.Mode & ModeFmt; {
	case ino < RootIno:
		p.drop(ino, "reserved inode")
		return
	case f != ModeReg && f != ModeDir && f != ModeLink:
		p.drop(ino, fmt.Sprintf("unknown mode %#x", ip.Mode))
		return
	case ip.Size < 0 || ip.Size > p.sb.MaxFileBlocks()*bsize:
		p.drop(ino, fmt.Sprintf("impossible size %d", ip.Size))
		return
	}
	if ip.Mode&ModeFmt == ModeLink && ip.Blocks != 0 {
		p.flag("ino %d: symlink claims %d fragments", "ino %d: symlink claimed %d fragments, zeroed", ino, ip.Blocks)
		ip.Blocks = 0
	}
	if ip.IsDir() && ip.Size%bsize != 0 {
		whole := ip.Size / bsize * bsize
		p.flag("ino %d: dir size %d not a block multiple (%d in whole blocks)",
			"ino %d: dir size %d not a block multiple, truncated to %d", ino, ip.Size, whole)
		ip.Size = whole
	}
	if ip.IsDir() && ip.Size == 0 {
		p.drop(ino, "directory with no blocks")
	}
}

// fragMap records, one byte per fragment, what holds each fragment of
// the file system during a pass.
type fragMap []byte

const (
	fragFree byte = iota
	fragMeta      // group metadata: superblock copy, header, inode blocks
	fragData      // claimed by an inode
)

// resetFrags starts a fresh fragment map with every group's metadata
// marked.
func (p *pass) resetFrags() {
	sb := p.sb
	if p.frags == nil {
		p.frags = make(fragMap, sb.Size)
	}
	clear(p.frags)
	for cgx := int32(0); cgx < sb.Ncg; cgx++ {
		base := sb.CgBase(cgx)
		p.frags.mark(base, sb.MetaFrags(), fragMeta)
	}
}

func (m fragMap) mark(fsbn, n int32, v byte) {
	for i := fsbn; i < fsbn+n; i++ {
		m[i] = v
	}
}

// claim takes [fsbn, fsbn+n) for an inode, all or nothing. It returns
// why it cannot, or "".
func (m fragMap) claim(fsbn, n int32) string {
	if fsbn <= 0 || int64(fsbn)+int64(n) > int64(len(m)) {
		return "out of range"
	}
	for _, f := range m[fsbn : fsbn+n] {
		switch f {
		case fragMeta:
			return "overlaps metadata"
		case fragData:
			return "multiply claimed"
		}
	}
	m.mark(fsbn, n, fragData)
	return ""
}

// fragsAt returns how many fragments logical block lbn of a file of the
// given size holds: a whole block, except the fragment-rounded tail of
// a file that ends in its direct blocks.
func (sb *Superblock) fragsAt(size, lbn int64) int32 {
	if lbn < NDADDR {
		if f := int32(sb.BlkSize(size, lbn)) / sb.Fsize; f > 0 {
			return f
		}
	}
	return sb.Frag
}

// A slotAction is what a walk visitor decides for one block pointer.
type slotAction uint8

const (
	descend slotAction = iota // keep it; walk the indirect block it points to
	prune                     // keep it; skip everything under it
	zero                      // clear it (Repair only)
)

// walk visits every nonzero block pointer of di in logical order. The
// visitor gets each pointer's level (0 a data block, 1 a block of data
// pointers, 2 the double-indirect block), the first logical block under
// it and its address. A zeroed pointer is cleared in di or in its
// indirect block, and an indirect block is written back only when one
// of its slots was zeroed. walk is the only code in the offline passes
// that knows the shape of the pointer tree.
func (p *pass) walk(di *Dinode, visit func(level int, lbn int64, fsbn int32) slotAction) {
	for i, a := range di.DB {
		if a != 0 && p.visit(0, int64(i), a, visit) == zero {
			di.DB[i] = 0
		}
	}
	for i, lbn := range [NIADDR]int64{NDADDR, NDADDR + p.sb.NindirPerBlock()} {
		if a := di.IB[i]; a != 0 && p.visit(i+1, lbn, a, visit) == zero {
			di.IB[i] = 0
		}
	}
}

// visit offers one pointer to the visitor and, if told to descend,
// walks the indirect block it points to.
func (p *pass) visit(level int, lbn int64, fsbn int32, visit func(int, int64, int32) slotAction) slotAction {
	act := visit(level, lbn, fsbn)
	if act != descend || level == 0 {
		return act
	}
	blk := p.ind[level-1]
	p.read(fsbn, blk)
	nindir := p.sb.NindirPerBlock()
	span := p.sb.span(level - 1)
	dirty := false
	for i := int64(0); i < nindir; i++ {
		if a := getIndir(blk, i); a != 0 && p.visit(level-1, lbn+i*span, a, visit) == zero {
			putIndir(blk, i, 0)
			dirty = true
		}
	}
	if dirty {
		p.write(fsbn, blk)
	}
	return descend
}

// span returns how many logical blocks one pointer at level maps.
func (sb *Superblock) span(level int) int64 {
	n := int64(1)
	for ; level > 0; level-- {
		n *= sb.NindirPerBlock()
	}
	return n
}

// reject is what the pointer rules do with a pointer they flag: Repair
// zeroes it, Fsck keeps it but does not look under it.
func (p *pass) reject() slotAction {
	if p.fix {
		return zero
	}
	return prune
}

// claimAll holds every live inode's block pointers to the pointer rules
// on a fresh fragment map. With blocks, each inode's di_blocks must
// also equal the fragments its pointers claim.
func (p *pass) claimAll(blocks bool) {
	p.resetFrags()
	for _, ino := range p.live() {
		ip := p.inodes[ino]
		if !ip.Allocated() || ip.Mode&ModeFmt == ModeLink {
			continue // a fast symlink's pointer area holds its target
		}
		frags := p.pointerRules(ino, ip)
		if blocks && ip.Allocated() && frags != ip.Blocks {
			p.flag("ino %d: di_blocks %d, but holds %d fragments", "ino %d: di_blocks %d, holds %d fragments", ino, ip.Blocks, frags)
			ip.Blocks = frags
		}
	}
}

// pointerRules walks one inode's block pointers, which must lie below
// the file's size, inside a group's data area, and clear of every
// fragment an earlier pointer claimed; a directory may have no holes.
// It returns the fragments claimed.
func (p *pass) pointerRules(ino int32, ip *offInode) (frags int32) {
	sb := p.sb
	bsize := int64(sb.Bsize)
	nblocks := (ip.Size + bsize - 1) / bsize
	whole := int64(0) // leading logical blocks held by kept data pointers
	p.walk(&ip.Dinode, func(level int, lbn int64, fsbn int32) slotAction {
		n := sb.Frag
		if level == 0 {
			n = sb.fragsAt(ip.Size, lbn)
		}
		var why string
		if lbn >= nblocks {
			why = fmt.Sprintf("beyond size %d", ip.Size)
		} else if why = p.frags.claim(fsbn, n); why == "" {
			frags += n
			if level == 0 && lbn == whole {
				whole++
			}
			return descend
		}
		switch {
		case level == 0 && lbn >= nblocks:
			p.flag("ino %d: block %d (fsbn %d) %s", "ino %[1]d: zeroed block pointer %[2]d %[4]s", ino, lbn, fsbn, why)
		case level == 0:
			p.flag("ino %d: block %d (fsbn %d) %s",
				"ino %[1]d: zeroed bad or duplicate block pointer at lbn %[2]d (fsbn %[3]d)", ino, lbn, fsbn, why)
		case level == 2 || lbn == NDADDR:
			p.flag("ino %d: indirect pointer IB[%d] (fsbn %d) %s",
				"ino %[1]d: zeroed bad indirect pointer IB[%[2]d] (fsbn %[3]d)", ino, level-1, fsbn, why)
		default:
			p.flag("ino %d: second-level indirect pointer (fsbn %d) %s",
				"ino %[1]d: zeroed bad second-level indirect pointer (fsbn %[2]d)", ino, fsbn, why)
		}
		return p.reject()
	})
	if !ip.IsDir() || whole >= nblocks {
		return frags
	}
	if whole == 0 {
		p.drop(ino, "directory lost its first block")
		return frags
	}
	p.flag("ino %d: directory has a hole at block %d (size %d, %d before it)",
		"ino %d: directory has a hole at block %d, truncated from %d to %d bytes", ino, whole, ip.Size, whole*bsize)
	ip.Size = whole * bsize
	if p.fix {
		// The pointers past the hole were claimed above; the final
		// claim sweep drops them from the map.
		p.walk(&ip.Dinode, func(level int, lbn int64, _ int32) slotAction {
			switch {
			case lbn >= whole:
				return zero
			case lbn+sb.span(level) <= whole:
				return prune
			}
			return descend
		})
	}
	return frags
}

// dirFrame is one directory waiting for walkDirs, with its parent.
type dirFrame struct{ ino, parent int32 }

// walkDirs walks the tree from the root under the directory rules:
// block 0 holds "." and "..", naming the directory and its parent;
// every other entry names a live inode, and names a directory only if
// nothing named it before. Then every live inode must have been
// reached, a directory by the walk and anything else by an entry, and
// its link count must equal the entries naming it.
func (p *pass) walkDirs() {
	root := p.inodes[RootIno]
	if root == nil || !root.IsDir() {
		if !p.fix {
			p.log = append(p.log, "root inode missing or not a directory")
		}
		return // Repair: ensureRoot already logged the hopeless case
	}
	root.named = true
	stack := []dirFrame{{RootIno, RootIno}}
	for len(stack) > 0 {
		fr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		dir := p.inodes[fr.ino]
		if dir.visited {
			continue
		}
		dir.visited = true
		nblocks := dir.Size / int64(p.sb.Bsize)
		var children []dirFrame
		p.walk(&dir.Dinode, func(level int, lbn int64, fsbn int32) slotAction {
			if lbn >= nblocks || fsbn <= 0 || fsbn > p.sb.Size-p.sb.Frag {
				return prune // past the end, or a pointer Fsck flagged
			}
			if level == 0 {
				children = p.dirBlock(fr, lbn, fsbn, children)
			}
			return descend
		})
		// Push children in reverse so the walk visits them in
		// directory order, which keeps the log deterministic.
		for i := len(children) - 1; i >= 0; i-- {
			stack = append(stack, children[i])
		}
	}

	// Fsck keeps the inodes it flags here, so its map checks compare
	// the disk with what the inodes on it claim rather than repeat these
	// findings as bitmap and count mismatches.
	unreached := func(ino int32, why string) {
		p.flag("ino %d: %s", "ino %d: cleared (%s)", ino, why)
		if p.fix {
			p.inodes[ino].Dinode = Dinode{}
		}
	}
	for _, ino := range p.live() {
		ip := p.inodes[ino]
		switch {
		case !ip.Allocated():
		case ip.IsDir() && !ip.visited:
			unreached(ino, "unreachable directory")
		case !ip.IsDir() && ip.links == 0:
			unreached(ino, "unreferenced inode")
		case ip.Nlink != ip.links:
			p.flag("ino %d: link count %d, found %d references", "ino %d: link count %d, counted %d", ino, ip.Nlink, ip.links)
			ip.Nlink = ip.links
		}
	}
}

// dirBlock holds block lbn of directory fr.ino to the directory rules,
// counts the links its entries make and returns children with the
// subdirectories it names appended. Repair rewrites a block it fixed.
func (p *pass) dirBlock(fr dirFrame, lbn int64, fsbn int32, children []dirFrame) []dirFrame {
	p.read(fsbn, p.blk)
	ents, err := parseDirents(p.blk)
	rebuilt := false
	if err != nil {
		p.flag("ino %d: directory block %d: %v", "ino %d: directory block %d unparseable (%v), rebuilt", fr.ino, lbn, err)
		ents, rebuilt = nil, true
	}
	var keep []Dirent
	sawDot, sawDotDot := false, false
	for _, e := range ents {
		switch {
		case e.Ino == 0:
			continue // a free record
		case lbn == 0 && e.Name == ".":
			if e.Ino != fr.ino {
				p.flag(`ino %d: "." points to %d`, `ino %d: "." pointed to %d, fixed`, fr.ino, e.Ino)
				e.Ino, rebuilt = fr.ino, true
			}
			sawDot = true
		case lbn == 0 && e.Name == "..":
			if e.Ino != fr.parent {
				p.flag(`ino %d: ".." points to %d, want %d`, `ino %d: ".." pointed to %d, fixed to %d`, fr.ino, e.Ino, fr.parent)
				e.Ino, rebuilt = fr.parent, true
			}
			sawDotDot = true
		case e.Name == "" || len(e.Name) > MaxNameLen:
			p.flag("ino %d: entry for ino %d has a %d-byte name",
				"ino %d: dropped entry for ino %d with a %d-byte name", fr.ino, e.Ino, len(e.Name))
			rebuilt = true
			continue
		default:
			t := p.inodes[e.Ino]
			if t == nil || !t.Allocated() {
				p.flag("ino %d: entry %q points to free ino %d", "ino %d: dropped entry %q -> dead ino %d", fr.ino, e.Name, e.Ino)
				rebuilt = true
				continue
			}
			if t.IsDir() {
				if t.named {
					p.flag("ino %d: entry %q names directory %d a second time",
						"ino %d: dropped duplicate directory link %q -> %d", fr.ino, e.Name, e.Ino)
					rebuilt = true
					continue
				}
				t.named = true
			}
		}
		keep = append(keep, e)
	}
	if lbn == 0 && (!sawDot || !sawDotDot) {
		p.flag(`ino %d: missing "." or ".."`, `ino %d: restored missing "."/".."`, fr.ino)
		rest := []Dirent{{Ino: fr.ino, Name: "."}, {Ino: fr.parent, Name: ".."}}
		for _, e := range keep {
			if e.Name != "." && e.Name != ".." {
				rest = append(rest, e)
			}
		}
		keep, rebuilt = rest, true
	}
	if rebuilt && p.fix {
		keep = p.writeDirBlock(fsbn, keep)
	}
	for _, e := range keep {
		switch {
		case lbn == 0 && e.Name == ".":
			p.inodes[fr.ino].links++
		case lbn == 0 && e.Name == "..":
			p.inodes[fr.parent].links++
		default:
			t := p.inodes[e.Ino]
			t.links++
			if t.IsDir() {
				children = append(children, dirFrame{e.Ino, fr.ino})
			}
		}
	}
	return children
}

// groupTotals are the free and directory counts a superblock keeps.
type groupTotals struct{ nbfree, nffree, nifree, ndir int32 }

// recount returns every group as the fragment map and the live inodes
// say it must be, and their totals.
func (p *pass) recount() ([]*CG, groupTotals) {
	sb := p.sb
	cgs := make([]*CG, sb.Ncg)
	var t groupTotals
	for cgx := range cgs {
		cg := NewCG(sb, int32(cgx))
		cg.Ndblk = sb.Fpg - sb.MetaFrags()
		cg.Nifree = sb.Ipg
		base := sb.CgBase(int32(cgx))
		for f := sb.MetaFrags(); f < sb.Fpg; f++ {
			if p.frags[base+f] == fragFree {
				setBit(cg.Blksfree, f)
			}
		}
		for f := int32(0); f+sb.Frag <= sb.Fpg; f += sb.Frag {
			if cg.BlockFree(f, sb.Frag) {
				cg.Nbfree++
				continue
			}
			for i := int32(0); i < sb.Frag; i++ {
				if cg.FragFree(f + i) {
					cg.Nffree++
				}
			}
		}
		cgs[cgx] = cg
	}
	used := func(ino int32, dir bool) {
		cg := cgs[ino/sb.Ipg]
		setBit(cg.Inosused, ino%sb.Ipg)
		cg.Nifree--
		if dir {
			cg.Ndir++
		}
	}
	for ino := int32(0); ino < RootIno; ino++ {
		used(ino, false) // reserved inodes are marked used
	}
	for _, ino := range p.live() {
		if ip := p.inodes[ino]; ip.Allocated() {
			used(ino, ip.IsDir())
		}
	}
	for _, cg := range cgs {
		t.nbfree += cg.Nbfree
		t.nffree += cg.Nffree
		t.nifree += cg.Nifree
		t.ndir += cg.Ndir
	}
	return cgs, t
}
