package ufs

import (
	"fmt"

	"ufsclust/internal/disk"
)

// FsckReport is the result of an offline consistency check.
type FsckReport struct {
	Problems  []string
	Files     int
	Dirs      int
	UsedFrags int64
	FreeFrags int64
}

// Clean reports whether no problems were found.
func (r *FsckReport) Clean() bool { return len(r.Problems) == 0 }

// Fsck checks the file system on d's image against the rules Repair
// enforces (offline.go) — inode fields, block pointers, directory
// structure and link counts — and then checks the bitmaps, group
// counts and superblock totals against what the inodes claim. It is
// how the repository demonstrates the paper's headline constraint: the
// clustered engine leaves images byte-compatible with the legacy one.
func Fsck(d disk.Device) (*FsckReport, error) {
	sb, err := ReadSuperblock(d)
	if err != nil {
		return nil, err
	}
	if err := checkGeometry(sb, d); err != nil {
		return nil, err
	}
	p := newPass(d, sb, false)
	p.load(nil)
	r := &FsckReport{}
	for _, ino := range p.live() {
		switch p.inodes[ino].Mode & ModeFmt {
		case ModeReg:
			r.Files++
		case ModeDir:
			r.Dirs++
		}
	}
	p.claimAll(true)
	p.walkDirs()

	addf := func(format string, args ...any) { p.log = append(p.log, fmt.Sprintf(format, args...)) }
	count := func(where, what string, got, want int32) {
		if got != want {
			addf("%s: %s %d, counted %d", where, what, got, want)
		}
	}
	cgs, want := p.recount()
	for cgx, w := range cgs {
		p.read(sb.CgHeader(int32(cgx)), p.blk)
		cg, err := UnmarshalCG(sb, p.blk)
		if err != nil {
			addf("cg %d: %v", cgx, err)
			continue
		}
		base := sb.CgBase(int32(cgx))
		for f := int32(0); f < sb.Fpg; f++ {
			switch free := cg.FragFree(f); {
			case free && !w.FragFree(f):
				addf("cg %d: fragment %d free in bitmap but in use", cgx, base+f)
			case !free && w.FragFree(f):
				addf("cg %d: fragment %d allocated in bitmap but unreferenced", cgx, base+f)
			}
		}
		for i := int32(0); i < sb.Ipg; i++ {
			switch used := cg.InodeUsed(i); {
			case used && !w.InodeUsed(i):
				addf("cg %d: inode %d marked used but unallocated", cgx, int32(cgx)*sb.Ipg+i)
			case !used && w.InodeUsed(i):
				addf("cg %d: inode %d allocated but marked free", cgx, int32(cgx)*sb.Ipg+i)
			}
		}
		where := fmt.Sprintf("cg %d", cgx)
		count(where, "nbfree", cg.Nbfree, w.Nbfree)
		count(where, "nffree", cg.Nffree, w.Nffree)
		count(where, "nifree", cg.Nifree, w.Nifree)
		count(where, "ndir", cg.Ndir, w.Ndir)
	}
	count("superblock", "nbfree", sb.CsNbfree, want.nbfree)
	count("superblock", "nffree", sb.CsNffree, want.nffree)
	count("superblock", "nifree", sb.CsNifree, want.nifree)
	count("superblock", "ndir", sb.CsNdir, want.ndir)
	for _, f := range p.frags {
		if f == fragFree {
			r.FreeFrags++
		} else {
			r.UsedFrags++
		}
	}
	r.Problems = p.log
	return r, nil
}
