package eme

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	//vetrepo:ignore cryptohygiene fixed-seed source generating test plaintexts, never key material
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	c, err := New(make([]byte, 32))
	if err != nil {
		t.Fatal(err)
	}
	pt := make([]byte, 4096)
	for i := range pt {
		pt[i] = byte(i)
	}
	var tweak [16]byte
	tweak[3] = 9
	ct := make([]byte, 4096)
	if err := c.Encrypt(ct, pt, tweak); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ct, pt) {
		t.Fatal("ciphertext equals plaintext")
	}
	back := make([]byte, 4096)
	if err := c.Decrypt(back, ct, tweak); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, pt) {
		t.Fatal("round trip failed")
	}
}

func TestSizeValidation(t *testing.T) {
	c, _ := New(make([]byte, 16))
	for _, n := range []int{0, 8, 17, 15, MaxBlocks*16 + 16} {
		if err := c.Encrypt(make([]byte, n), make([]byte, n), [16]byte{}); err == nil {
			t.Fatalf("size %d accepted", n)
		}
	}
	if err := c.Encrypt(make([]byte, 8), make([]byte, 16), [16]byte{}); err == nil {
		t.Fatal("short dst accepted")
	}
	if _, err := New(make([]byte, 5)); err == nil {
		t.Fatal("bad key accepted")
	}
}

// The wide-block property (§2.2): flipping ANY single plaintext bit must
// change essentially every ciphertext block — unlike XTS, where only the
// containing 16-byte sub-block changes.
func TestWideBlockDiffusion(t *testing.T) {
	c, _ := New(make([]byte, 32))
	var tweak [16]byte
	pt := make([]byte, 4096)
	for i := range pt {
		pt[i] = byte(i * 7)
	}
	base := make([]byte, 4096)
	if err := c.Encrypt(base, pt, tweak); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		mod := append([]byte(nil), pt...)
		bit := rng.Intn(4096 * 8)
		mod[bit/8] ^= 1 << (bit % 8)
		ct := make([]byte, 4096)
		if err := c.Encrypt(ct, mod, tweak); err != nil {
			t.Fatal(err)
		}
		changedBlocks := 0
		for b := 0; b < 256; b++ {
			if !bytes.Equal(base[b*16:(b+1)*16], ct[b*16:(b+1)*16]) {
				changedBlocks++
			}
		}
		if changedBlocks != 256 {
			t.Fatalf("bit %d: only %d/256 blocks changed — diffusion broken", bit, changedBlocks)
		}
	}
}

// Determinism still holds (an exact overwrite is identifiable, as the
// paper notes for wide-block): same key+tweak+plaintext repeats.
func TestDeterministic(t *testing.T) {
	c, _ := New(make([]byte, 32))
	var tweak [16]byte
	pt := make([]byte, 64)
	a := make([]byte, 64)
	b := make([]byte, 64)
	c.Encrypt(a, pt, tweak)
	c.Encrypt(b, pt, tweak)
	if !bytes.Equal(a, b) {
		t.Fatal("not deterministic")
	}
	var tweak2 [16]byte
	tweak2[0] = 1
	c.Encrypt(b, pt, tweak2)
	if bytes.Equal(a, b) {
		t.Fatal("tweak ignored")
	}
}

// Property: exact invertibility across lengths, tweaks, keys, and
// in-place operation.
func TestRoundTripProperty(t *testing.T) {
	f := func(keySeed, dataSeed int64, blocks uint16, tweakSeed int64) bool {
		key := make([]byte, 32)
		rand.New(rand.NewSource(keySeed)).Read(key)
		c, err := New(key)
		if err != nil {
			return false
		}
		n := (int(blocks)%MaxBlocks + 1) * 16
		pt := make([]byte, n)
		rand.New(rand.NewSource(dataSeed)).Read(pt)
		var tweak [16]byte
		rand.New(rand.NewSource(tweakSeed)).Read(tweak[:])

		ct := make([]byte, n)
		if err := c.Encrypt(ct, pt, tweak); err != nil {
			return false
		}
		back := make([]byte, n)
		if err := c.Decrypt(back, ct, tweak); err != nil {
			return false
		}
		if !bytes.Equal(back, pt) {
			return false
		}
		// In-place must agree.
		inplace := append([]byte(nil), pt...)
		if err := c.Encrypt(inplace, inplace, tweak); err != nil {
			return false
		}
		return bytes.Equal(inplace, ct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSingleBlock(t *testing.T) {
	c, _ := New(make([]byte, 16))
	pt := []byte("exactly16bytes!!")
	var tweak [16]byte
	ct := make([]byte, 16)
	if err := c.Encrypt(ct, pt, tweak); err != nil {
		t.Fatal(err)
	}
	back := make([]byte, 16)
	if err := c.Decrypt(back, ct, tweak); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, pt) {
		t.Fatal("single block round trip failed")
	}
}

// ---- reference-implementation cross-check (the IEEE 1619.2 stand-in) ----
//
// Real EME2-AES test vectors are not available offline, so the optimized
// implementation is checked against refEncrypt/refDecrypt: a naive,
// allocation-happy, independently written transcription of the same
// Encrypt-Mix-Encrypt construction. The two share nothing but the
// specification (package code: in-place strided passes over pooled
// scratch; reference: block lists, precomputed mask tables, no sharing),
// so agreement over structured and random inputs is strong evidence
// neither has drifted — the role 1619.2 known-answer vectors would play.

// refMul2 doubles an element of GF(2^128) (little-endian bit order, as
// the package uses).
func refMul2(v []byte) []byte {
	out := make([]byte, 16)
	var carry byte
	for i := 0; i < 16; i++ {
		out[i] = v[i]<<1 | carry
		carry = v[i] >> 7
	}
	if carry != 0 {
		out[0] ^= 0x87
	}
	return out
}

func refXor(a, b []byte) []byte {
	out := make([]byte, len(a))
	for i := range out {
		out[i] = a[i] ^ b[i]
	}
	return out
}

// refProcess is the reference EME transform.
func refProcess(c *Cipher, src []byte, tweak [16]byte, enc bool) []byte {
	m := len(src) / 16
	crypt := c.block.Encrypt
	if !enc {
		crypt = c.block.Decrypt
	}

	// Precompute the whitening mask table L, 2L, 4L, ... with
	// L = 2·E_K(0).
	l := make([]byte, 16)
	c.block.Encrypt(l, l)
	masks := make([][]byte, m)
	masks[0] = refMul2(l)
	for i := 1; i < m; i++ {
		masks[i] = refMul2(masks[i-1])
	}

	// Pass 1.
	inter := make([][]byte, m)
	for i := 0; i < m; i++ {
		blk := refXor(src[i*16:(i+1)*16], masks[i])
		out := make([]byte, 16)
		crypt(out, blk)
		inter[i] = out
	}

	// Mix.
	sp := make([]byte, 16)
	for i := 0; i < m; i++ {
		sp = refXor(sp, inter[i])
	}
	mp := refXor(sp, tweak[:])
	mc := make([]byte, 16)
	crypt(mc, mp)
	mv := refXor(mp, mc)

	mixed := make([][]byte, m)
	mmask := mv
	acc := make([]byte, 16)
	for i := 1; i < m; i++ {
		mixed[i] = refXor(inter[i], mmask)
		acc = refXor(acc, mixed[i])
		mmask = refMul2(mmask)
	}
	mixed[0] = refXor(refXor(mc, tweak[:]), acc)

	// Pass 2.
	dst := make([]byte, m*16)
	for i := 0; i < m; i++ {
		out := make([]byte, 16)
		crypt(out, mixed[i])
		copy(dst[i*16:], refXor(out, masks[i]))
	}
	return dst
}

func refEncrypt(c *Cipher, src []byte, tweak [16]byte) []byte {
	return refProcess(c, src, tweak, true)
}

func refDecrypt(c *Cipher, src []byte, tweak [16]byte) []byte {
	return refProcess(c, src, tweak, false)
}

// TestMatchesReferenceImplementation cross-checks encrypt AND decrypt,
// out of place and in place, against the reference over structured
// plaintexts (zeros, ramps, repeated sub-blocks, single set bits) and
// random ones, at data units from one block to MaxBlocks, including the
// 4 KiB sector and its neighbours.
func TestMatchesReferenceImplementation(t *testing.T) {
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(i*11 + 3)
	}
	c, err := New(key)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	var sizes []int
	for _, m := range []int{1, 2, 32, 128, 255, 256, 257, MaxBlocks} {
		sizes = append(sizes, m*16)
	}
	structured := func(n, kind int) []byte {
		p := make([]byte, n)
		switch kind {
		case 0: // zeros
		case 1: // byte ramp
			for i := range p {
				p[i] = byte(i)
			}
		case 2: // repeated sub-block
			for i := range p {
				p[i] = byte(i % 16)
			}
		case 3: // single set bit
			p[n/2] = 0x80
		default: // random
			rng.Read(p)
		}
		return p
	}
	for _, n := range sizes {
		for kind := 0; kind < 6; kind++ {
			var tweak [16]byte
			rng.Read(tweak[:])
			pt := structured(n, kind)

			want := refEncrypt(c, pt, tweak)
			got := make([]byte, n)
			if err := c.Encrypt(got, pt, tweak); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("n=%d kind=%d: encrypt diverges from reference", n, kind)
			}

			back := make([]byte, n)
			if err := c.Decrypt(back, want, tweak); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(back, pt) {
				t.Fatalf("n=%d kind=%d: package decrypt does not invert reference encrypt", n, kind)
			}
			if rb := refDecrypt(c, got, tweak); !bytes.Equal(rb, pt) {
				t.Fatalf("n=%d kind=%d: reference decrypt does not invert package encrypt", n, kind)
			}

			inplace := append([]byte(nil), pt...)
			if err := c.Encrypt(inplace, inplace, tweak); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(inplace, want) {
				t.Fatalf("n=%d kind=%d: in-place encrypt diverges from reference", n, kind)
			}
			if err := c.Decrypt(inplace, inplace, tweak); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(inplace, pt) {
				t.Fatalf("n=%d kind=%d: in-place decrypt does not invert", n, kind)
			}
			if err := c.Decrypt(got, pt, tweak); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, refDecrypt(c, pt, tweak)) {
				t.Fatalf("n=%d kind=%d: decrypt diverges from reference", n, kind)
			}
		}
	}
}

// TestTweakSensitivity: the same plaintext under two tweaks differing in
// a single bit must produce unrelated ciphertexts, for every tweak byte
// position — the property that binds a sector's ciphertext to its LBA/IV.
func TestTweakSensitivity(t *testing.T) {
	c, _ := New(make([]byte, 32))
	pt := make([]byte, 4096)
	for i := range pt {
		pt[i] = byte(i * 13)
	}
	base := make([]byte, 4096)
	var t0 [16]byte
	if err := c.Encrypt(base, pt, t0); err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < 16; pos++ {
		tw := t0
		tw[pos] ^= 1
		ct := make([]byte, 4096)
		if err := c.Encrypt(ct, pt, tw); err != nil {
			t.Fatal(err)
		}
		diff := 0
		for i := range ct {
			if ct[i] != base[i] {
				diff++
			}
		}
		// ~255/256 of bytes should differ; require a loose half.
		if diff < 2048 {
			t.Fatalf("tweak bit in byte %d changed only %d/4096 ciphertext bytes", pos, diff)
		}
	}
}

// TestSingleBitDiffusion quantifies the avalanche: flipping one
// plaintext bit flips close to half of all ciphertext BITS (not just
// bytes), across bit positions spread over the whole sector.
func TestSingleBitDiffusion(t *testing.T) {
	c, _ := New(make([]byte, 32))
	var tweak [16]byte
	pt := make([]byte, 4096)
	rand.New(rand.NewSource(5)).Read(pt)
	base := make([]byte, 4096)
	if err := c.Encrypt(base, pt, tweak); err != nil {
		t.Fatal(err)
	}
	for _, bit := range []int{0, 7, 1000, 16384, 32767} {
		mod := append([]byte(nil), pt...)
		mod[bit/8] ^= 1 << (bit % 8)
		ct := make([]byte, 4096)
		if err := c.Encrypt(ct, mod, tweak); err != nil {
			t.Fatal(err)
		}
		hamming := 0
		for i := range ct {
			x := ct[i] ^ base[i]
			for ; x != 0; x &= x - 1 {
				hamming++
			}
		}
		// Expect ≈ 16384 flipped bits of 32768; accept a wide ±25% band
		// (binomial fluctuation is far tighter; this catches structural
		// failure, not statistics).
		if hamming < 12288 || hamming > 20480 {
			t.Fatalf("bit %d: %d/32768 ciphertext bits flipped", bit, hamming)
		}
	}
}

// TestKnownAnswerDigests pins fixed (key, tweak, plaintext) encryptions
// to SHA-256 digests captured from this implementation after it was
// verified against the independent reference above. They guard against
// the construction drifting silently — the role interoperable IEEE
// 1619.2 vectors would play once wired in (ROADMAP item).
func TestKnownAnswerDigests(t *testing.T) {
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(i)
	}
	c, err := New(key)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]string{
		16:   "dc68825a5477000537164a3ccf1db6fd4a83a20bed32171eee252982418e9b12",
		512:  "ec8ee4a2d5f9ab6978d258e6aff51b623bf1597b9190a99e387c6fec425fa9f6",
		4096: "f04279b1e36d495505312fefa8b0f089b85fc4211595c0b57b93a57c02f2b162",
	}
	for n, digest := range want {
		pt := make([]byte, n)
		for i := range pt {
			pt[i] = byte(i * 3)
		}
		var tweak [16]byte
		for i := range tweak {
			tweak[i] = byte(0xF0 | i)
		}
		ct := make([]byte, n)
		if err := c.Encrypt(ct, pt, tweak); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(ct)); got != digest {
			t.Fatalf("n=%d: ciphertext digest %s, want %s", n, got, digest)
		}
	}
}

// TestZeroAlloc pins Encrypt and Decrypt at zero heap allocations per
// call, on a 4 KiB sector and on the largest unit, 8 KiB, which reads
// the whole precomputed mask table.
func TestZeroAlloc(t *testing.T) {
	c, err := New(make([]byte, 32))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, MaxBlocks*BlockSize)
	for _, n := range []int{4096, MaxBlocks * BlockSize} {
		for _, op := range []struct {
			name string
			f    func(dst, src []byte, tweak [TweakSize]byte) error
		}{{"Encrypt", c.Encrypt}, {"Decrypt", c.Decrypt}} {
			allocs := testing.AllocsPerRun(100, func() {
				if err := op.f(buf[:n], buf[:n], [TweakSize]byte{7}); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s of %d bytes: %.1f allocs per call, want 0", op.name, n, allocs)
			}
		}
	}
}
