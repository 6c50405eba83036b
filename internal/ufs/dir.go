package ufs

import (
	"errors"
	"fmt"
	"strings"

	"ufsclust/internal/sim"
)

// Directory entries use the FFS "direct" format: inode number, record
// length, name length, then the name padded to a 4-byte boundary. Record
// lengths within one block always sum to the block size; deleting an
// entry merges its record into its predecessor.

// MaxNameLen bounds a single path component.
const MaxNameLen = 255

// ErrNotFound is returned by lookups that find nothing.
var ErrNotFound = errors.New("ufs: no such file or directory")

// ErrExists is returned when creating over an existing name.
var ErrExists = errors.New("ufs: file exists")

// ErrNotDir is returned when a path component is not a directory.
var ErrNotDir = errors.New("ufs: not a directory")

// ErrNotEmpty is returned when removing a non-empty directory.
var ErrNotEmpty = errors.New("ufs: directory not empty")

// direntSize returns the record size needed for a name (header + name +
// NUL, rounded to 4).
func direntSize(name string) int {
	return 8 + (len(name)+1+3)&^3
}

// putDirent writes an entry with a tight record length; returns it.
func putDirent(buf []byte, ino int32, name string) int {
	return putDirentLast(buf, ino, name, direntSize(name))
}

// putDirentLast writes an entry with an explicit record length.
func putDirentLast(buf []byte, ino int32, name string, reclen int) int {
	if len(name) == 0 || len(name) > MaxNameLen {
		panic("ufs: bad dirent name") // simlint:invariant -- DirEnter validates names before this point
	}
	putIndir(buf, 0, ino) // same little-endian u32 encoding
	buf[4] = byte(reclen)
	buf[5] = byte(reclen >> 8)
	buf[6] = byte(len(name))
	buf[7] = byte(len(name) >> 8)
	copy(buf[8:], name)
	buf[8+len(name)] = 0
	return reclen
}

// Dirent is a decoded directory entry.
type Dirent struct {
	Ino    int32
	Name   string
	off    int // byte offset within the directory block
	reclen int
}

// parseDirents decodes one directory block.
func parseDirents(blk []byte) ([]Dirent, error) {
	var out []Dirent
	off := 0
	for off < len(blk) {
		if len(blk)-off < 8 {
			return nil, fmt.Errorf("ufs: corrupt dirent at offset %d (%d-byte tail)", off, len(blk)-off)
		}
		i := int32(uint32(blk[off]) | uint32(blk[off+1])<<8 | uint32(blk[off+2])<<16 | uint32(blk[off+3])<<24)
		reclen := int(blk[off+4]) | int(blk[off+5])<<8
		namlen := int(blk[off+6]) | int(blk[off+7])<<8
		if reclen < 8 || off+reclen > len(blk) || (reclen&3) != 0 {
			return nil, fmt.Errorf("ufs: corrupt dirent at offset %d (reclen %d)", off, reclen)
		}
		if namlen > reclen-8 {
			return nil, fmt.Errorf("ufs: corrupt dirent name at offset %d", off)
		}
		if i != 0 {
			out = append(out, Dirent{
				Ino:    i,
				Name:   string(blk[off+8 : off+8+namlen]),
				off:    off,
				reclen: reclen,
			})
		} else {
			out = append(out, Dirent{Ino: 0, off: off, reclen: reclen})
		}
		off += reclen
	}
	return out, nil
}

// dirBlocks iterates the data blocks of directory dip, calling fn with
// each block's buffer (held busy). fn returns whether it modified the
// block and whether to stop.
func (fs *Fs) dirBlocks(p *sim.Proc, dip *Inode, fn func(b *MBuf) (dirty, stop bool, err error)) error {
	if !dip.D.IsDir() {
		return ErrNotDir
	}
	nblocks := (dip.D.Size + int64(fs.SB.Bsize) - 1) / int64(fs.SB.Bsize)
	for lbn := int64(0); lbn < nblocks; lbn++ {
		fsbn, _, err := fs.Bmap(p, dip, lbn)
		if err != nil {
			return err
		}
		if fsbn == 0 {
			return errors.New("ufs: hole in directory")
		}
		b, err := fs.BC.Bread(p, fsbn)
		if err != nil {
			return err
		}
		dirty, stop, err := fn(b)
		if dirty {
			// Directory modifications follow UFS's ordering discipline
			// (synchronous, or B_ORDER with OrderedWrites) so the name
			// space on disk is always consistent.
			if werr := fs.metaWrite(p, b); werr != nil && err == nil {
				err = werr
			}
		} else {
			fs.BC.Brelse(b)
		}
		if err != nil || stop {
			return err
		}
	}
	return nil
}

// DirLookup finds name in directory dip.
func (fs *Fs) DirLookup(p *sim.Proc, dip *Inode, name string) (int32, error) {
	var found int32
	err := fs.dirBlocks(p, dip, func(b *MBuf) (bool, bool, error) {
		ents, err := parseDirents(b.Data)
		if err != nil {
			return false, true, err
		}
		for _, e := range ents {
			if e.Ino != 0 && e.Name == name {
				found = e.Ino
				return false, true, nil
			}
		}
		return false, false, nil
	})
	if err != nil {
		return 0, err
	}
	if found == 0 {
		return 0, ErrNotFound
	}
	return found, nil
}

// DirEnter links name -> ino into directory dip, reusing slack space in
// existing records or growing the directory by one block.
func (fs *Fs) DirEnter(p *sim.Proc, dip *Inode, name string, ino int32) error {
	if len(name) == 0 || len(name) > MaxNameLen || strings.Contains(name, "/") {
		return fmt.Errorf("ufs: invalid name %q", name)
	}
	need := direntSize(name)
	inserted := false
	err := fs.dirBlocks(p, dip, func(b *MBuf) (bool, bool, error) {
		ents, err := parseDirents(b.Data)
		if err != nil {
			return false, true, err
		}
		for _, e := range ents {
			if e.Ino != 0 && e.Name == name {
				return false, true, ErrExists
			}
		}
		for _, e := range ents {
			var slack, used int
			if e.Ino == 0 {
				slack, used = e.reclen, 0
			} else {
				used = direntSize(e.Name)
				slack = e.reclen - used
			}
			if slack < need {
				continue
			}
			// Shrink the existing record and append the new one.
			if e.Ino != 0 {
				b.Data[e.off+4] = byte(used)
				b.Data[e.off+5] = byte(used >> 8)
			}
			putDirentLast(b.Data[e.off+used:], ino, name, e.reclen-used)
			inserted = true
			return true, true, nil
		}
		return false, false, nil
	})
	if err != nil {
		return err
	}
	if inserted {
		return nil
	}
	// Grow the directory by one block holding just this entry.
	lbn := dip.D.Size / int64(fs.SB.Bsize)
	fsbn, err := fs.BmapAlloc(p, dip, lbn, int(fs.SB.Bsize))
	if err != nil {
		return err
	}
	b := fs.BC.getblk(p, fsbn)
	for i := range b.Data {
		b.Data[i] = 0
	}
	b.valid = true
	putDirentLast(b.Data, ino, name, int(fs.SB.Bsize))
	if err := fs.metaWrite(p, b); err != nil {
		return err
	}
	dip.D.Size += int64(fs.SB.Bsize)
	dip.MarkDirty()
	return nil
}

// DirRemove unlinks name from dip, merging the freed record into its
// predecessor (or zeroing its inode if it leads the block).
func (fs *Fs) DirRemove(p *sim.Proc, dip *Inode, name string) (int32, error) {
	var removed int32
	err := fs.dirBlocks(p, dip, func(b *MBuf) (bool, bool, error) {
		ents, err := parseDirents(b.Data)
		if err != nil {
			return false, true, err
		}
		for i, e := range ents {
			if e.Ino == 0 || e.Name != name {
				continue
			}
			removed = e.Ino
			if i > 0 && ents[i-1].off+ents[i-1].reclen == e.off {
				// Merge into predecessor.
				nr := ents[i-1].reclen + e.reclen
				b.Data[ents[i-1].off+4] = byte(nr)
				b.Data[ents[i-1].off+5] = byte(nr >> 8)
			} else {
				putIndir(b.Data[e.off:], 0, 0) // zero the inode field
			}
			return true, true, nil
		}
		return false, false, nil
	})
	if err != nil {
		return 0, err
	}
	if removed == 0 {
		return 0, ErrNotFound
	}
	return removed, nil
}

// DirIsEmpty reports whether dip contains only "." and "..".
func (fs *Fs) DirIsEmpty(p *sim.Proc, dip *Inode) (bool, error) {
	empty := true
	err := fs.dirBlocks(p, dip, func(b *MBuf) (bool, bool, error) {
		ents, err := parseDirents(b.Data)
		if err != nil {
			return false, true, err
		}
		for _, e := range ents {
			if e.Ino != 0 && e.Name != "." && e.Name != ".." {
				empty = false
				return false, true, nil
			}
		}
		return false, false, nil
	})
	return empty, err
}

// ReadDir lists the live entries of dip.
func (fs *Fs) ReadDir(p *sim.Proc, dip *Inode) ([]Dirent, error) {
	var out []Dirent
	err := fs.dirBlocks(p, dip, func(b *MBuf) (bool, bool, error) {
		ents, err := parseDirents(b.Data)
		if err != nil {
			return false, true, err
		}
		for _, e := range ents {
			if e.Ino != 0 {
				out = append(out, e)
			}
		}
		return false, false, nil
	})
	return out, err
}
