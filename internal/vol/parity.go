package vol

import (
	"crypto/subtle"

	"ufsclust/internal/disk"
)

// xorInto folds src into dst: dst[i] ^= src[i] for every i < len(src);
// len(src) must not exceed len(dst). It is the volume's one parity
// kernel — full-stripe parity, the read-modify-write delta fold,
// reconstruction, rebuild and the parity check all run through it — and
// works a machine word (a vector register on amd64) at a time.
func xorInto(dst, src []byte) {
	subtle.XORBytes(dst, dst, src)
}

// maxScratch caps how many chunk buffers a volume keeps between uses.
// The driver keeps at most one request in flight per member, and each
// spans a bounded number of rows, so the parity path's concurrent demand
// stays well below the cap; the cap bounds what a caller submitting
// straight to the volume can leave retained.
const maxScratch = 64

// getChunk lends a buffer of n bytes (at most one chunk) from the
// volume's free list. Its contents are stale: callers overwrite it
// whole (a member read, an image read, or a copy) before reading it.
func (v *Volume) getChunk(n int64) []byte {
	if k := len(v.scratch); k > 0 {
		b := v.scratch[k-1]
		v.scratch = v.scratch[:k-1]
		return b[:n]
	}
	return make([]byte, n, v.ss*disk.SectorSize)
}

// putChunk returns a buffer lent by getChunk. The caller must hold the
// buffer's last reference: no member transfer may still be using it.
func (v *Volume) putChunk(b []byte) {
	if len(v.scratch) < maxScratch {
		v.scratch = append(v.scratch, b)
	}
}
