//go:build !race

// The race detector makes sync.Pool drop items at random, so the pooled
// scratch is only allocation-free without it.

package xts

import "testing"

// TestZeroAlloc pins Encrypt and Decrypt at zero heap allocations per
// call, on a whole 4 KiB sector and on 4095 bytes (ciphertext stealing).
func TestZeroAlloc(t *testing.T) {
	c, err := NewCipher(make([]byte, 64))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	for _, n := range []int{4096, 4095} {
		for _, op := range []struct {
			name string
			f    func(dst, src []byte, tweak [TweakSize]byte) error
		}{{"Encrypt", c.Encrypt}, {"Decrypt", c.Decrypt}} {
			allocs := testing.AllocsPerRun(100, func() {
				if err := op.f(buf[:n], buf[:n], SectorTweak(7)); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s of %d bytes: %.1f allocs per call, want 0", op.name, n, allocs)
			}
		}
	}
}
