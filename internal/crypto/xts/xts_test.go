package xts

import (
	"bytes"
	"crypto/aes"
	"encoding/hex"
	//vetrepo:ignore cryptohygiene fixed-seed source generating test plaintexts, never key material
	"math/rand"
	"testing"
	"testing/quick"
)

// IEEE 1619 XTS-AES-128 test vectors (the two classic all-zero /
// structured-key vectors exercised by most implementations).
func TestIEEEVectors(t *testing.T) {
	cases := []struct {
		name          string
		key1, key2    string
		sector        uint64
		plain, cipher string
	}{
		{
			name:   "vector1-zero",
			key1:   "00000000000000000000000000000000",
			key2:   "00000000000000000000000000000000",
			plain:  "0000000000000000000000000000000000000000000000000000000000000000",
			cipher: "917cf69ebd68b2ec9b9fe9a3eadda692cd43d2f59598ed858c02c2652fbf922e",
		},
		{
			name:   "vector2",
			key1:   "11111111111111111111111111111111",
			key2:   "22222222222222222222222222222222",
			sector: 0x3333333333,
			plain:  "4444444444444444444444444444444444444444444444444444444444444444",
			cipher: "c454185e6a16936e39334038acef838bfb186fff7480adc4289382ecd6d394f0",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k1, _ := hex.DecodeString(tc.key1)
			k2, _ := hex.DecodeString(tc.key2)
			pt, _ := hex.DecodeString(tc.plain)
			want, _ := hex.DecodeString(tc.cipher)
			c, err := NewCipher(append(k1, k2...))
			if err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(pt))
			if err := c.Encrypt(got, pt, SectorTweak(tc.sector)); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("ciphertext\n got %x\nwant %x", got, want)
			}
			back := make([]byte, len(pt))
			if err := c.Decrypt(back, got, SectorTweak(tc.sector)); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(back, pt) {
				t.Fatal("decrypt mismatch")
			}
		})
	}
}

func TestKeySizes(t *testing.T) {
	for _, n := range []int{32, 64} {
		if _, err := NewCipher(make([]byte, n)); err != nil {
			t.Fatalf("key size %d rejected: %v", n, err)
		}
	}
	for _, n := range []int{0, 16, 31, 48, 65} {
		if _, err := NewCipher(make([]byte, n)); err == nil {
			t.Fatalf("key size %d accepted", n)
		}
	}
}

func TestShortDataRejected(t *testing.T) {
	c, _ := NewCipher(make([]byte, 64))
	if err := c.Encrypt(make([]byte, 8), make([]byte, 8), SectorTweak(0)); err == nil {
		t.Fatal("short data accepted")
	}
	if err := c.Encrypt(make([]byte, 8), make([]byte, 32), SectorTweak(0)); err == nil {
		t.Fatal("short dst accepted")
	}
}

// refMul2 is the byte-wise doubling the word-wise mul2 replaced: it
// multiplies by x in GF(2^128) with the XTS little-endian convention
// (the carry out of byte 15 folds back as 0x87 into byte 0).
func refMul2(v [16]byte) [16]byte {
	var carry byte
	for i := range v {
		next := v[i] >> 7
		v[i] = v[i]<<1 | carry
		carry = next
	}
	if carry != 0 {
		v[0] ^= 0x87
	}
	return v
}

// refXTS is a straightforward byte-wise transcription of IEEE 1619
// XTS-AES, ciphertext stealing included, sharing no code with the
// package: every block is tweaked, ciphered and untweaked on its own,
// with the tweak doubled by refMul2.
func refXTS(key []byte, tweak [16]byte, in []byte, enc bool) []byte {
	half := len(key) / 2
	k1, _ := aes.NewCipher(key[:half])
	k2, _ := aes.NewCipher(key[half:])
	var t0 [16]byte
	k2.Encrypt(t0[:], tweak[:])
	m := len(in) / 16
	rem := len(in) % 16
	tweaks := make([][16]byte, m+1)
	tweaks[0] = t0
	for i := 1; i <= m; i++ {
		tweaks[i] = refMul2(tweaks[i-1])
	}
	block := func(b []byte, t [16]byte) []byte {
		out := make([]byte, 16)
		for j := range out {
			out[j] = b[j] ^ t[j]
		}
		if enc {
			k1.Encrypt(out, out)
		} else {
			k1.Decrypt(out, out)
		}
		for j := range out {
			out[j] ^= t[j]
		}
		return out
	}
	out := make([]byte, len(in))
	full := m
	if rem != 0 {
		full = m - 1
	}
	for i := 0; i < full; i++ {
		copy(out[i*16:], block(in[i*16:(i+1)*16], tweaks[i]))
	}
	if rem == 0 {
		return out
	}
	// The last full block and the partial tail (§5.3): encryption uses
	// tweaks m-1 then m; decryption uses them the other way round.
	first, second := tweaks[m-1], tweaks[m]
	if !enc {
		first, second = second, first
	}
	last := block(in[(m-1)*16:m*16], first)
	joined := append(append([]byte(nil), in[m*16:]...), last[rem:]...)
	copy(out[m*16:], last[:rem])
	copy(out[(m-1)*16:], block(joined, second))
	return out
}

// runBoundaryTweak returns a tweak whose encrypted value has bit 127 set
// after 255 doublings, so the 0x87 fold happens as the first tweak run
// (256 blocks) hands over to the second.
func runBoundaryTweak(t *testing.T, key []byte, rng *rand.Rand) [16]byte {
	t.Helper()
	k2, _ := aes.NewCipher(key[len(key)/2:])
	for range 64 {
		var tweak, v [16]byte
		rng.Read(tweak[:])
		k2.Encrypt(v[:], tweak[:])
		for range runBlocks - 1 {
			v = refMul2(v)
		}
		if v[15]&0x80 != 0 {
			return tweak
		}
	}
	t.Fatal("no tweak folds at the run boundary")
	return [16]byte{}
}

// TestAgainstReference cross-checks Encrypt and Decrypt against refXTS,
// out of place and in place, on random short units and on units that
// span more than one tweak run: 4 KiB, 4 KiB plus a ciphertext-stealing
// tail, and 8 KiB (512 blocks), under tweaks whose doubling folds at the
// run boundary.
func TestAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var sizes []int
	for range 50 {
		sizes = append(sizes, (1+rng.Intn(64))*16)
	}
	sizes = append(sizes, 4096, 4096+1, 4096+7, 4096+15, 8192-1, 8192)
	for trial, n := range sizes {
		keyLen := 32
		if trial%2 == 0 {
			keyLen = 64
		}
		key := make([]byte, keyLen)
		rng.Read(key)
		var tweak [16]byte
		rng.Read(tweak[:])
		if n > runBlocks*BlockSize {
			tweak = runBoundaryTweak(t, key, rng)
		}
		pt := make([]byte, n)
		rng.Read(pt)

		c, err := NewCipher(key)
		if err != nil {
			t.Fatal(err)
		}
		for _, enc := range []bool{true, false} {
			want := refXTS(key, tweak, pt, enc)
			op := c.Encrypt
			if !enc {
				op = c.Decrypt
			}
			got := make([]byte, n)
			if err := op(got, pt, tweak); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("n=%d encrypt=%v: out of place differs from reference", n, enc)
			}
			inplace := append([]byte(nil), pt...)
			if err := op(inplace, inplace, tweak); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(inplace, want) {
				t.Fatalf("n=%d encrypt=%v: in place differs from reference", n, enc)
			}
		}
	}
}

// Property: decrypt(encrypt(x)) == x for all lengths >= 16 including
// ciphertext-stealing tails, and in-place operation works.
func TestRoundTripProperty(t *testing.T) {
	c, err := NewCipher([]byte("0123456789abcdef0123456789abcdefFEDCBA9876543210FEDCBA9876543210"))
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64, ln uint16, tweakSeed int64) bool {
		n := int(ln)%4080 + 16
		rng := rand.New(rand.NewSource(seed))
		pt := make([]byte, n)
		rng.Read(pt)
		var tweak [16]byte
		rand.New(rand.NewSource(tweakSeed)).Read(tweak[:])

		ct := make([]byte, n)
		if err := c.Encrypt(ct, pt, tweak); err != nil {
			return false
		}
		if bytes.Equal(ct, pt) {
			return false // vanishingly unlikely
		}
		back := make([]byte, n)
		if err := c.Decrypt(back, ct, tweak); err != nil {
			return false
		}
		if !bytes.Equal(back, pt) {
			return false
		}
		// In-place.
		inplace := append([]byte(nil), pt...)
		if err := c.Encrypt(inplace, inplace, tweak); err != nil {
			return false
		}
		return bytes.Equal(inplace, ct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: different tweaks produce unrelated ciphertexts for the same
// plaintext (the core of the paper's random-IV idea).
func TestTweakSensitivity(t *testing.T) {
	c, _ := NewCipher(make([]byte, 64))
	pt := make([]byte, 4096)
	ct1 := make([]byte, 4096)
	ct2 := make([]byte, 4096)
	if err := c.Encrypt(ct1, pt, SectorTweak(1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Encrypt(ct2, pt, SectorTweak(2)); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ct1, ct2) {
		t.Fatal("different tweaks must differ")
	}
	// And the same tweak is deterministic (the paper's §1 concern).
	ct3 := make([]byte, 4096)
	if err := c.Encrypt(ct3, pt, SectorTweak(1)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ct1, ct3) {
		t.Fatal("same tweak must repeat")
	}
}

// XTS narrow-block property (§2.1): flipping a bit in one 16-byte
// sub-block changes only that sub-block of the ciphertext. This is the
// leakage the paper's random IV removes across overwrites.
func TestNarrowBlockLocality(t *testing.T) {
	c, _ := NewCipher(make([]byte, 64))
	pt := make([]byte, 4096)
	for i := range pt {
		pt[i] = byte(i)
	}
	ct1 := make([]byte, 4096)
	if err := c.Encrypt(ct1, pt, SectorTweak(7)); err != nil {
		t.Fatal(err)
	}
	pt2 := append([]byte(nil), pt...)
	pt2[1000] ^= 0x01 // inside sub-block 62
	ct2 := make([]byte, 4096)
	if err := c.Encrypt(ct2, pt2, SectorTweak(7)); err != nil {
		t.Fatal(err)
	}
	changed := 1000 / 16
	for b := 0; b < 256; b++ {
		same := bytes.Equal(ct1[b*16:(b+1)*16], ct2[b*16:(b+1)*16])
		if b == changed && same {
			t.Fatal("changed sub-block should differ")
		}
		if b != changed && !same {
			t.Fatalf("sub-block %d changed unexpectedly (narrow-block property violated)", b)
		}
	}
}

// Sub-block ciphertext splicing (§2.1): combining sub-blocks of two
// ciphertexts written with the same tweak decrypts to the corresponding
// plaintext combination — a legal ciphertext an attacker can forge.
func TestSpliceAttackPossibleWithSameTweak(t *testing.T) {
	c, _ := NewCipher(make([]byte, 64))
	ptA := bytes.Repeat([]byte{0xAA}, 64)
	ptB := bytes.Repeat([]byte{0xBB}, 64)
	ctA := make([]byte, 64)
	ctB := make([]byte, 64)
	tw := SectorTweak(3)
	c.Encrypt(ctA, ptA, tw)
	c.Encrypt(ctB, ptB, tw)

	spliced := append(append([]byte(nil), ctA[:32]...), ctB[32:]...)
	out := make([]byte, 64)
	if err := c.Decrypt(out, spliced, tw); err != nil {
		t.Fatal(err)
	}
	want := append(append([]byte(nil), ptA[:32]...), ptB[32:]...)
	if !bytes.Equal(out, want) {
		t.Fatal("splice should decrypt cleanly — this demonstrates the attack")
	}
}

// TestMul2MatchesCarrylessSquare checks the word-wise doubling against
// the byte-wise refMul2 over the 128 doublings from 1 (which must visit
// 128 distinct values) and over random values.
func TestMul2MatchesCarrylessSquare(t *testing.T) {
	words := func(v [16]byte) (uint64, uint64) { return le.Uint64(v[:8]), le.Uint64(v[8:]) }
	check := func(v [16]byte) [16]byte {
		t.Helper()
		next := refMul2(v)
		lo, hi := mul2(words(v))
		if wlo, whi := words(next); lo != wlo || hi != whi {
			t.Fatalf("mul2(%x) = %016x:%016x, want %x", v, hi, lo, next)
		}
		return next
	}
	var v [16]byte
	v[0] = 1
	seen := map[[16]byte]bool{v: true}
	for i := 0; i < 128; i++ {
		v = check(v)
		if seen[v] {
			t.Fatalf("cycle after %d doublings", i+1)
		}
		seen[v] = true
	}
	rng := rand.New(rand.NewSource(9))
	for range 1000 {
		rng.Read(v[:])
		check(v)
	}
}

func TestCiphertextStealingLength(t *testing.T) {
	c, _ := NewCipher(make([]byte, 64))
	for _, n := range []int{17, 31, 33, 100, 4095} {
		pt := make([]byte, n)
		for i := range pt {
			pt[i] = byte(i * 3)
		}
		ct := make([]byte, n)
		if err := c.Encrypt(ct, pt, SectorTweak(9)); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(ct) != n {
			t.Fatalf("n=%d: length changed", n)
		}
		back := make([]byte, n)
		if err := c.Decrypt(back, ct, SectorTweak(9)); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !bytes.Equal(back, pt) {
			t.Fatalf("n=%d: round trip failed", n)
		}
	}
}

func TestSectorTweakLayout(t *testing.T) {
	tw := SectorTweak(0x0102030405060708)
	want := []byte{8, 7, 6, 5, 4, 3, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0}
	if !bytes.Equal(tw[:], want) {
		t.Fatalf("tweak layout %x", tw)
	}
}
