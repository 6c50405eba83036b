package ufs

import (
	"fmt"

	"ufsclust/internal/disk"
)

// This file is the offline crash-recovery half of fsck: where Fsck only
// reports inconsistencies, Repair rewrites the image until none remain.
// It exists for the fault-injection harness (internal/fault,
// internal/faultlab): a power cut freezes the disk with only the
// acknowledged-durable sectors applied, and Repair must bring that
// torn image back to a mountable, Fsck-clean state without losing any
// byte the machine had acknowledged as durable.
//
// The durability contract it leans on (see core.File.Fsync and
// Fs.SyncInode): data pages, indirect blocks, and the inode are written
// before an fsync returns, in that order, and directory entries are
// written synchronously at create time. Bitmaps, cylinder-group headers
// and superblock totals are NOT kept durable — Repair rebuilds all of
// them from the inodes, which are the single source of truth.

// RepairReport records what Repair changed, plus the post-repair check.
type RepairReport struct {
	Fixes []string    // one line per change applied, deterministic order
	Check *FsckReport // Fsck of the repaired image
}

// Clean reports whether the repaired image passed its final check.
func (r *RepairReport) Clean() bool { return r.Check != nil && r.Check.Clean() }

// Repair fixes the file system on d's image in place and returns what
// it did. It fails only when no superblock can be recovered; every
// other inconsistency is repaired, destructively if necessary (an
// unreachable or structurally hopeless inode is cleared, a duplicate
// block claim is resolved in favor of the lower-numbered inode). The
// rules it enforces are Fsck's (offline.go); bitmaps, group headers
// and superblock totals are then rebuilt from the surviving inodes.
func Repair(d disk.Device) (*RepairReport, error) {
	sb, err := ReadSuperblock(d)
	if err == nil {
		err = checkGeometry(sb, d)
	}
	restored := err != nil
	if restored {
		if sb, err = findAltSuperblock(d); err != nil {
			return nil, fmt.Errorf("ufs: repair: no usable superblock: %w", err)
		}
	}
	p := newPass(d, sb, true)
	if restored {
		p.log = append(p.log, "superblock: primary unreadable, restored from a backup copy")
	}
	table := make([]Dinode, sb.Ncg*sb.Ipg)
	p.load(table)
	p.claimAll(false)
	p.ensureRoot()
	p.walkDirs()
	p.claimAll(true) // final claim sweep: fixes di_blocks, maps the survivors
	p.writeBack(table)

	rep := &RepairReport{Fixes: p.log}
	if rep.Check, err = Fsck(d); err != nil {
		return rep, err
	}
	return rep, nil
}

// findAltSuperblock scans the image for a backup superblock copy when
// the primary is gone. Copies live at fragment CgSBlock(cg) of every
// group; the scan accepts the first candidate that decodes, fits the
// disk, and sits where its own geometry says a copy belongs.
func findAltSuperblock(d disk.Device) (*Superblock, error) {
	totalFrags := d.Geom().TotalBytes() / SBSize
	buf := make([]byte, SBSize)
	for f := int64(0); f < totalFrags; f++ {
		d.ReadImage(f*SBSize/disk.SectorSize, buf)
		sb, err := UnmarshalSuperblock(buf)
		if err != nil || checkGeometry(sb, d) != nil {
			continue
		}
		if f < sbFragOffset || (f-sbFragOffset)%int64(sb.Fpg) != 0 {
			continue
		}
		return sb, nil
	}
	return nil, fmt.Errorf("ufs: no superblock copy found in %d fragments", totalFrags)
}

// ensureRoot guarantees a usable root directory, rebuilding an empty
// one from a free block when the original is gone. Everything that hung
// off a lost root becomes unreachable and is cleared by the walk.
func (p *pass) ensureRoot() {
	sb := p.sb
	if root := p.inodes[RootIno]; root != nil && root.IsDir() && root.DB[0] != 0 {
		return
	}
	fsbn := p.findFreeBlock()
	if fsbn == 0 {
		// A full disk with no root is unrecoverable space-wise; leave
		// the problem for the final Fsck to report.
		p.log = append(p.log, "root inode unusable and no free block to rebuild it")
		return
	}
	p.frags.mark(fsbn, sb.Frag, fragData)
	p.writeDirBlock(fsbn, []Dirent{{Ino: RootIno, Name: "."}, {Ino: RootIno, Name: ".."}})
	root := &offInode{Dinode: Dinode{Mode: ModeDir | 0o755, Nlink: 2, Size: int64(sb.Bsize), Blocks: sb.Frag}}
	root.DB[0] = fsbn
	p.inodes[RootIno] = root
	p.log = append(p.log, fmt.Sprintf("root directory rebuilt empty at fsbn %d", fsbn))
}

// findFreeBlock returns the first group-relative block-aligned run of
// Frag unclaimed data fragments, or 0. (Block alignment is relative to
// the group base, matching the allocator and fsck.)
func (p *pass) findFreeBlock() int32 {
	sb := p.sb
	for cgx := int32(0); cgx < sb.Ncg; cgx++ {
		base := sb.CgBase(cgx)
	scan:
		for f := base + sb.MetaFrags(); f+sb.Frag <= base+sb.Fpg; f += sb.Frag {
			for _, v := range p.frags[f : f+sb.Frag] {
				if v != fragFree {
					continue scan
				}
			}
			return f
		}
	}
	return 0
}

// writeDirBlock packs ents into directory block fsbn, the last record
// absorbing the slack (with no entries the block is one free record),
// and returns the entries that fit.
func (p *pass) writeDirBlock(fsbn int32, ents []Dirent) []Dirent {
	bsize := int(p.sb.Bsize)
	blk := p.blk
	clear(blk)
	kept := ents[:0]
	off, last := 0, -1
	for _, e := range ents {
		if off+direntSize(e.Name) > bsize {
			p.log = append(p.log, fmt.Sprintf("dir block overflow: dropped entry %q", e.Name))
			continue
		}
		last = off
		off += putDirent(blk[off:], e.Ino, e.Name)
		kept = append(kept, e)
	}
	if last < 0 {
		last = 0
	}
	blk[last+4] = byte(bsize - last)
	blk[last+5] = byte((bsize - last) >> 8)
	p.write(fsbn, blk)
	return kept
}

// writeBack writes every inode block from table, overlaid with the
// repaired inodes, then every cylinder group as recounted from the
// final claims, then the superblock, marked clean, to every copy.
func (p *pass) writeBack(table []Dinode) {
	sb := p.sb
	for ino, ip := range p.inodes { // simlint:ignore maporder -- each write goes to its own slot
		table[ino] = ip.Dinode
	}
	ipb := int32(sb.InodesPerBlock())
	for cgx := int32(0); cgx < sb.Ncg; cgx++ {
		for blk := int32(0); blk < sb.InodeBlocks(); blk++ {
			clear(p.blk)
			for k := int32(0); k < ipb; k++ {
				if ino := cgx*sb.Ipg + blk*ipb + k; ino < int32(len(table)) {
					table[ino].MarshalInto(p.blk[k*DinodeSize:])
				}
			}
			p.write(sb.CgIblock(cgx)+blk*sb.Frag, p.blk)
		}
	}
	cgs, t := p.recount()
	for cgx, cg := range cgs {
		cg.MarshalInto(sb, p.blk)
		p.write(sb.CgHeader(int32(cgx)), p.blk)
	}
	sb.CsNbfree, sb.CsNffree, sb.CsNifree, sb.CsNdir = t.nbfree, t.nffree, t.nifree, t.ndir
	sb.Clean, sb.Fmod = 1, 0
	raw := sb.Marshal()
	for cgx := int32(0); cgx < sb.Ncg; cgx++ {
		p.d.WriteImage(sb.FsbToDb(sb.CgSBlock(cgx)), raw)
	}
}
