package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"ufsclust"
	"ufsclust/internal/prefetch"
	"ufsclust/internal/sim"
	"ufsclust/internal/vec"
	"ufsclust/internal/vol"
	"ufsclust/internal/wal"
)

const (
	officeUsers    = 8
	streamPath     = "/stream"
	streamPieces   = 16      // Readv elements per strided call
	streamRecord   = 8 << 10 // bytes per element and per sequential read
	streamStride   = 64 << 10
	streamSeqReads = 64 // sequential reads between strided calls
	// streamLimit bounds a session in simulated time. A session takes
	// under 15 simulated minutes; only a starved or stuck user reaches it.
	streamLimit    = 3 * 3600 * sim.Second
	officeMinBytes = 512
	officeMaxBytes = 64 << 10
)

// officeMachine is run A with every layer the paper's machine lacks
// switched on: RAID-5 over three members with a 32 KB stripe, the
// clustered write-ahead journal, adaptive read-ahead and the automatic
// vectored-I/O strategy.
func officeMachine(seed int64) (*ufsclust.Machine, error) {
	return ufsclust.New(ufsclust.RunA(),
		ufsclust.WithSeed(seed),
		ufsclust.WithVolume(vol.Config{Level: vol.RAID5, Members: 3, StripeKB: 32}),
		ufsclust.WithJournal(wal.Config{Clustered: true}),
		ufsclust.WithReadAhead(prefetch.NewAdaptive(prefetch.AdaptiveConfig{})),
		ufsclust.WithVecStrategy(vec.Auto(0)))
}

// fill writes the content of the file with identity id at offset off,
// which must be a multiple of 8: one mixed 64-bit word per 8 bytes, so
// a hole, a lost write or a misdirected block cannot pass for data.
func fill(b []byte, id, off int64) {
	word := func(i int) uint64 {
		x := uint64(id)<<40 ^ uint64(off+int64(i))>>3
		x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
		x = (x ^ x>>27) * 0x94D049BB133111EB
		return x ^ x>>31
	}
	i := 0
	for ; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], word(i))
	}
	if i < len(b) {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], word(i))
		copy(b[i:], w[:])
	}
}

// matches reports whether b holds what fill writes, using want as
// scratch space of at least len(b) bytes.
func matches(b, want []byte, id, off int64) bool {
	want = want[:len(b)]
	fill(want, id, off)
	return bytes.Equal(b, want)
}

// session is the state the simulated users share; the simulator runs
// one process at a time, so plain fields need no locking.
type session struct {
	m         *ufsclust.Machine
	sizes     [][]int // per user, per file: bytes written
	usersDone int
	bytes     int64
	opNS      []float64 // simulated latency of each user operation
	errs      int
	firstErr  string
}

func (s *session) fault(format string, args ...any) {
	s.errs++
	if s.firstErr == "" {
		s.firstErr = fmt.Sprintf(format, args...)
	}
}

// op runs one file-system call; an error fails the session.
func (s *session) op(sp *sim.Proc, what string, fn func() error) bool {
	if err := fn(); err != nil {
		s.fault("%s: %s: %v", sp.Name(), what, err)
		return false
	}
	return true
}

// officeSizes draws every file size of a session from the seed, so the
// inputs exist before the machine does.
func officeSizes(seed int64, files int) [][]int {
	rng := rand.New(rand.NewSource(seed))
	sizes := make([][]int, officeUsers)
	for u := range sizes {
		sizes[u] = make([]int, files)
		for i := range sizes[u] {
			sizes[u][i] = officeMinBytes + rng.Intn(officeMaxBytes-officeMinBytes+1)
		}
	}
	return sizes
}

// officePass runs one session on a fresh machine: eight users with no
// think time doing small-file create/write/fsync/read-back/rename/
// remove/readdir loops, beside one streamer alternating strided Readv
// and sequential reads over a file twice the page cache. A unit is one
// session; it fails on any unexpected error, any read-back mismatch or
// a dirty fsck at the end.
func officePass(c config, p *pass) {
	p.unit("office")
	sizes := officeSizes(c.seed, c.size.officeFiles)
	t0 := time.Now()
	m, err := officeMachine(c.seed)
	t0 = p.span("machine_new", t0)
	if err != nil {
		p.fail("office: %v", err)
		return
	}
	s := &session{m: m, sizes: sizes}
	streamBytes := int64(c.size.officeStreamMB) << 20
	pre := m.Snapshot()
	var start, end sim.Time
	err = m.Run(func(sp *sim.Proc) {
		if !s.setup(sp, streamBytes) {
			return
		}
		pre, start = m.Snapshot(), sp.Now()
		for u := 0; u < officeUsers; u++ {
			m.Sim.Spawn(fmt.Sprintf("user%d", u), func(up *sim.Proc) {
				us := &user{s: s, sp: up, u: u, names: make([]string, len(sizes[u])),
					buf: make([]byte, officeMaxBytes), scratch: make([]byte, officeMaxBytes)}
				us.run()
			})
		}
		m.Sim.Spawn("streamer", func(sp *sim.Proc) {
			s.stream(sp, streamBytes)
			end = sp.Now()
		})
	})
	t0 = p.span("simulate", t0)
	if err != nil {
		s.fault("run: %v", err)
	}
	d := m.Snapshot().Delta(pre)
	fr, err := m.Fsck()
	p.span("verify", t0)
	switch {
	case err != nil:
		s.fault("fsck: %v", err)
	case !fr.Clean():
		s.fault("fsck: %v", fr.Problems)
	}
	t0 = time.Now()
	m.Close()
	p.span("close", t0)

	p.addDelta(d)
	p.hash(int64(end-start), s.bytes, int64(len(s.opNS)))
	for _, ns := range s.opNS {
		p.hash(int64(ns))
	}
	p.bytes += s.bytes
	p.vtNS += int64(end - start)
	p.cpuNS += d.Get("cpu.system_ns")
	p.cpuBytes += s.bytes
	p.opNS = append(p.opNS, s.opNS...)
	if s.errs > 0 {
		p.fail("office: %d errors, first: %s", s.errs, s.firstErr)
	}
}

// setup makes the users' directories and writes the stream file.
func (s *session) setup(sp *sim.Proc, streamBytes int64) bool {
	fs := s.m.FS
	for u := 0; u < officeUsers; u++ {
		ip, err := fs.Mkdir(sp, fmt.Sprintf("/u%d", u))
		if err != nil {
			s.fault("mkdir: %v", err)
			return false
		}
		fs.Iput(sp, ip)
	}
	f, err := s.m.Engine.Create(sp, streamPath)
	if err != nil {
		s.fault("create stream: %v", err)
		return false
	}
	buf := make([]byte, 64<<10)
	for off := int64(0); off < streamBytes; off += int64(len(buf)) {
		fill(buf, 0, off)
		if _, err := f.Write(sp, off, buf); err != nil {
			s.fault("write stream: %v", err)
			return false
		}
	}
	if err := f.Fsync(sp); err != nil {
		s.fault("fsync stream: %v", err)
		return false
	}
	return true
}

// user is one closed-loop simulated user.
type user struct {
	s       *session
	sp      *sim.Proc
	u       int
	names   []string // current path of each file
	live    int      // files in the user's directory
	buf     []byte
	scratch []byte
}

// run loops the user's operations until done or an error. File i of
// user u has identity 1 + u*files + i, so every file's content differs.
func (us *user) run() {
	defer func() { us.s.usersDone++ }()
	for i := range us.names {
		t0 := us.sp.Now()
		if !us.iteration(i) {
			return
		}
		us.s.opNS = append(us.s.opNS, float64(us.sp.Now()-t0))
	}
}

func (us *user) id(i int) int64 { return 1 + int64(us.u*len(us.names)+i) }

// iteration is one user operation, whose simulated latency is one
// sample of vt_op_ms_*: create and write file i, fsync every 4th, read
// back and check file i-1, rename every 3rd, remove the file 8 back and
// list the directory every 10th.
func (us *user) iteration(i int) bool {
	s, sp, u := us.s, us.sp, us.u
	eng, fs := s.m.Engine, s.m.FS
	us.names[i] = fmt.Sprintf("/u%d/f%d", u, i)
	var f *ufsclust.File
	if !s.op(sp, "create", func() (err error) { f, err = eng.Create(sp, us.names[i]); return }) {
		return false
	}
	us.live++
	data := us.buf[:s.sizes[u][i]]
	fill(data, us.id(i), 0)
	if !s.op(sp, "write", func() error { _, err := f.Write(sp, 0, data); return err }) {
		return false
	}
	s.bytes += int64(len(data))
	if i%4 == 3 && !s.op(sp, "fsync", func() error { return f.Fsync(sp) }) {
		return false
	}
	if i > 0 {
		prev := us.buf[:s.sizes[u][i-1]]
		var g *ufsclust.File
		if !s.op(sp, "open", func() (err error) { g, err = eng.Open(sp, us.names[i-1]); return }) {
			return false
		}
		if !s.op(sp, "read", func() error {
			n, err := g.Read(sp, 0, prev)
			if err == nil && n != len(prev) {
				err = fmt.Errorf("short read %d of %d", n, len(prev))
			}
			return err
		}) {
			return false
		}
		s.bytes += int64(len(prev))
		if !matches(prev, us.scratch, us.id(i-1), 0) {
			s.fault("user%d: %s read back wrong data", u, us.names[i-1])
		}
	}
	if i%3 == 2 {
		to := fmt.Sprintf("/u%d/r%d", u, i)
		if !s.op(sp, "rename", func() error { return fs.Rename(sp, us.names[i], to) }) {
			return false
		}
		us.names[i] = to
	}
	if i >= 8 {
		if !s.op(sp, "remove", func() error { return eng.Remove(sp, us.names[i-8]) }) {
			return false
		}
		us.live--
	}
	if i%10 == 9 {
		dir := fmt.Sprintf("/u%d", u)
		var n int
		if !s.op(sp, "readdir", func() error {
			dip, err := fs.Namei(sp, dir)
			if err != nil {
				return err
			}
			defer fs.Iput(sp, dip)
			ents, err := fs.ReadDir(sp, dip)
			n = len(ents) - 2 // "." and ".."
			return err
		}) {
			return false
		}
		if n != us.live {
			s.fault("user%d: readdir %s lists %d files, want %d", u, dir, n, us.live)
		}
	}
	return true
}

// stream alternates strided Readv calls and runs of sequential reads
// over the stream file until every user has finished.
func (s *session) stream(sp *sim.Proc, size int64) {
	f, err := s.m.Engine.Open(sp, streamPath)
	if err != nil {
		s.fault("open stream: %v", err)
		return
	}
	buf := make([]byte, streamPieces*streamRecord)
	scratch := make([]byte, streamRecord)
	v := make([]ufsclust.Ext, streamPieces)
	var off int64
	deadline := sp.Now() + streamLimit
	for s.usersDone < officeUsers {
		if sp.Now() > deadline {
			s.fault("streamer: users still running after %v of simulated time", streamLimit)
			return
		}
		if off+streamPieces*streamStride > size {
			off = 0
		}
		for k := range v {
			v[k] = ufsclust.Ext{Off: off + int64(k)*streamStride, Len: streamRecord}
		}
		if !s.op(sp, "readv", func() error { _, err := f.Readv(sp, v, buf); return err }) {
			return
		}
		for k, e := range v {
			if !matches(buf[k*streamRecord:(k+1)*streamRecord], scratch, 0, e.Off) {
				s.fault("streamer: readv at %d read back wrong data", e.Off)
			}
		}
		s.bytes += int64(len(buf))
		off += streamPieces * streamStride
		for k := 0; k < streamSeqReads; k++ {
			if off+streamRecord > size {
				off = 0
			}
			rec := buf[:streamRecord]
			if !s.op(sp, "read", func() error { _, err := f.Read(sp, off, rec); return err }) {
				return
			}
			if !matches(rec, scratch, 0, off) {
				s.fault("streamer: read at %d read back wrong data", off)
			}
			s.bytes += streamRecord
			off += streamRecord
		}
	}
}
