package core

// xferRetainBytes bounds the transfer buffers an engine keeps between
// I/Os. It covers the steady state of every shipped configuration — a
// few maxphys clusters in flight per spindle — so the common path never
// allocates; a burst beyond it (a pageout storm with no write limit)
// allocates the overflow and lets the collector take it back, so a
// machine's retained memory never grows with its I/O history.
const xferRetainBytes = 2 << 20

// xferPool is an engine's free list of transfer buffers: one stack per
// size class of whole file-system blocks, so a cluster reuses a
// cluster-sized buffer and a single block reuses a block-sized one.
//
// Ownership: push and startReadTagged take a buffer with get and hand
// it to the driver; the buf's Iodone — the single completion that ends
// the transfer, on the success and the error path alike — gives it
// back with put. Nothing reads a buffer after its Iodone returns. A
// power cut ends the simulation before the Iodone runs, and the buffer
// is simply abandoned.
type xferPool struct {
	bsize int        // class unit: the file system block size
	free  [][][]byte // free[c] holds buffers of capacity c*bsize
	held  int        // bytes retained across every class
}

// get returns a buffer of n bytes. Its contents are stale: a read
// transfer or the gather copy of a write overwrites all n bytes before
// anything reads them.
func (x *xferPool) get(n int) []byte {
	c := (n + x.bsize - 1) / x.bsize
	if c < len(x.free) {
		if s := x.free[c]; len(s) > 0 {
			b := s[len(s)-1]
			x.free[c] = s[:len(s)-1]
			x.held -= cap(b)
			return b[:n]
		}
	}
	return make([]byte, n, c*x.bsize)
}

// put returns a buffer taken with get, or drops it for the collector
// when keeping it would exceed xferRetainBytes.
func (x *xferPool) put(b []byte) {
	if x.held+cap(b) > xferRetainBytes {
		return
	}
	c := cap(b) / x.bsize
	for len(x.free) <= c {
		x.free = append(x.free, nil)
	}
	x.free[c] = append(x.free[c], b)
	x.held += cap(b)
}
