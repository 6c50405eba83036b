package vol

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestXorIntoMatchesBytewiseOracle checks the parity kernel against the
// byte-at-a-time definition: random lengths (most not a multiple of the
// 8-byte word), destinations at random offsets inside a parity union
// buffer, and the exact-overlap form the delta fold uses (folding new
// data into the old-data buffer in place, so dst and the kernel's first
// operand are one slice).
func TestXorIntoMatchesBytewiseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		un := 1 + rng.Intn(32<<10+17) // parity union length
		po := rng.Intn(un)            // piece offset inside the union
		n := rng.Intn(un - po + 1)    // piece length, may be 0
		parity := make([]byte, un)
		old := make([]byte, n)
		nd := make([]byte, n)
		rng.Read(parity)
		rng.Read(old)
		rng.Read(nd)

		want := append([]byte(nil), parity...)
		for j := 0; j < n; j++ {
			want[po+j] ^= old[j] ^ nd[j]
		}
		wantDelta := make([]byte, n)
		for j := range wantDelta {
			wantDelta[j] = old[j] ^ nd[j]
		}

		// The read-modify-write fold: old ^= new in place, then
		// parity[po:] ^= old.
		xorInto(old, nd)
		if !bytes.Equal(old, wantDelta) {
			t.Fatalf("trial %d: in-place delta of %d bytes diverges from the oracle", trial, n)
		}
		xorInto(parity[po:], old)
		if !bytes.Equal(parity, want) {
			t.Fatalf("trial %d: fold of %d bytes at offset %d into %d diverges from the oracle", trial, n, po, un)
		}
	}
}
