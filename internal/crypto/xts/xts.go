// Package xts implements the XTS-AES tweakable block cipher mode of
// IEEE Std 1619 / NIST SP 800-38E, the mode used by LUKS2, dm-crypt,
// BitLocker and FileVault for sector encryption (paper §2.1).
//
// Unlike kernel implementations that derive the 16-byte tweak from the
// sector number only, Encrypt and Decrypt accept an arbitrary tweak so the
// paper's random-IV scheme can feed a random 128-bit value. The
// sector-number convention is available via SectorTweak. Ciphertext
// stealing handles data units that are not a multiple of 16 bytes.
//
// XTS is a narrow-block mode: a plaintext change affects only the 16-byte
// sub-block that contains it (§2.1's leakage discussion). The eme package
// provides the wide-block alternative.
//
// The inner loop works in tweak runs: up to 256 consecutive tweaks are
// doubled word-wise into pooled scratch, then XORed into dst in one pass,
// ciphered block by block in place, and XORed again. Calls allocate
// nothing. dst may alias src exactly; partial overlap is not supported.
package xts

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// BlockSize is the cipher block size in bytes.
const BlockSize = 16

// TweakSize is the tweak (IV) size in bytes.
const TweakSize = 16

var le = binary.LittleEndian

var (
	// ErrKeySize reports an XTS key that is not 32 or 64 bytes
	// (two AES-128 or two AES-256 keys).
	ErrKeySize = errors.New("xts: key must be 32 or 64 bytes")
	// ErrDataSize reports a data unit shorter than one block.
	ErrDataSize = errors.New("xts: data unit must be at least 16 bytes")
)

// Cipher is an XTS-AES instance. It is safe for concurrent use.
type Cipher struct {
	k1 cipher.Block // data encryption key
	k2 cipher.Block // tweak encryption key
}

// NewCipher creates an XTS-AES cipher from the concatenation of the data
// key and the tweak key (each 16 bytes for XTS-AES-128 or 32 bytes for
// XTS-AES-256).
func NewCipher(key []byte) (*Cipher, error) {
	if len(key) != 32 && len(key) != 64 {
		return nil, fmt.Errorf("%w (got %d)", ErrKeySize, len(key))
	}
	half := len(key) / 2
	k1, err := aes.NewCipher(key[:half])
	if err != nil {
		return nil, err
	}
	k2, err := aes.NewCipher(key[half:])
	if err != nil {
		return nil, err
	}
	return &Cipher{k1: k1, k2: k2}, nil
}

// SectorTweak returns the conventional deterministic tweak for a sector:
// the 64-bit little-endian sector number padded with zeros, as used by
// dm-crypt/LUKS ("plain64" IV).
func SectorTweak(sector uint64) [TweakSize]byte {
	var t [TweakSize]byte
	binary.LittleEndian.PutUint64(t[:8], sector)
	return t
}

// mul2 multiplies the 128-bit value hi:lo by x in GF(2^128) with the XTS
// little-endian convention: lo holds bytes 0..7 and hi bytes 8..15, both
// little-endian, and the carry out of bit 127 folds back as 0x87.
func mul2(lo, hi uint64) (uint64, uint64) {
	return lo<<1 ^ 0x87&-(hi>>63), hi<<1 | lo>>63
}

// Encrypt encrypts a data unit src into dst under the given tweak. dst
// may alias src exactly; partial overlap is not supported. len(dst) must
// be at least len(src), and len(src) at least one block; ciphertext
// stealing covers trailing partial blocks.
func (c *Cipher) Encrypt(dst, src []byte, tweak [TweakSize]byte) error {
	return c.process(dst, src, tweak, true)
}

// Decrypt reverses Encrypt, with the same aliasing rule.
func (c *Cipher) Decrypt(dst, src []byte, tweak [TweakSize]byte) error {
	return c.process(dst, src, tweak, false)
}

// runBlocks is how many consecutive tweaks one run precomputes: a 4 KiB
// sector is one run.
const runBlocks = 256

// scratch holds the per-call tweak run and block state. It is pooled
// rather than stack-allocated because the arrays are passed into
// cipher.Block interface methods, which makes them escape — one heap
// allocation per sector — and the sector path must be allocation-free in
// steady state.
type scratch struct {
	run                  [runBlocks * BlockSize]byte
	tw, t, t2, x, pp, cc [BlockSize]byte
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func (c *Cipher) process(dst, src []byte, tweak [TweakSize]byte, enc bool) error {
	if len(src) < BlockSize {
		return fmt.Errorf("%w (got %d)", ErrDataSize, len(src))
	}
	if len(dst) < len(src) {
		return errors.New("xts: dst shorter than src")
	}
	s0 := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s0)
	t, x := &s0.t, &s0.x
	// Copy the tweak into the pooled scratch before handing it to the
	// cipher.Block interface; a param slice would escape (allocate).
	s0.tw = tweak
	c.k2.Encrypt(t[:], s0.tw[:])
	crypt := c.k1.Encrypt
	if !enc {
		crypt = c.k1.Decrypt
	}

	// n bytes of whole blocks go through tweak runs; with a partial tail,
	// the final full block is left to ciphertext stealing.
	rem := len(src) % BlockSize
	n := len(src) - rem
	if rem != 0 {
		n -= BlockSize
	}

	// One tweak run at a time: fill the run's tweaks, XOR them into dst,
	// cipher each block in place, XOR them again.
	lo, hi := le.Uint64(t[:8]), le.Uint64(t[8:])
	for off := 0; off < n; off += len(s0.run) {
		run := s0.run[:min(n-off, len(s0.run))]
		for i := 0; i < len(run); i += BlockSize {
			le.PutUint64(run[i:], lo)
			le.PutUint64(run[i+8:], hi)
			lo, hi = mul2(lo, hi)
		}
		d := dst[off : off+len(run)]
		subtle.XORBytes(d, src[off:off+len(run)], run)
		for i := 0; i < len(d); i += BlockSize {
			crypt(d[i:i+BlockSize], d[i:i+BlockSize])
		}
		subtle.XORBytes(d, d, run)
	}
	if rem == 0 {
		return nil
	}
	le.PutUint64(t[:8], lo)
	le.PutUint64(t[8:], hi)
	lo, hi = mul2(lo, hi)
	t2 := &s0.t2
	le.PutUint64(t2[:8], lo)
	le.PutUint64(t2[8:], hi)

	// Ciphertext stealing for the trailing partial block (IEEE 1619 §5.3),
	// with t the tweak of the last full block m and t2 that of the partial
	// one. Both source blocks are read into scratch before dst is written,
	// because dst may alias src.
	pp, cc := &s0.pp, &s0.cc
	last, tail := src[n:n+BlockSize], src[n+BlockSize:]
	if enc {
		// CC = E(Pm) under tweak m; the stolen head of CC becomes the
		// final partial ciphertext; the last full block is
		// E(tail || rest of CC) under tweak m+1.
		subtle.XORBytes(x[:], last, t[:])
		crypt(x[:], x[:])
		subtle.XORBytes(cc[:], x[:], t[:])
		copy(pp[:], cc[:])
		copy(pp[:], tail)
		copy(dst[n+BlockSize:], cc[:rem]) // stolen head
		subtle.XORBytes(x[:], pp[:], t2[:])
		crypt(x[:], x[:])
		subtle.XORBytes(dst[n:n+BlockSize], x[:], t2[:])
	} else {
		// Mirror image: decrypt the last full block under tweak m+1 first.
		subtle.XORBytes(x[:], last, t2[:])
		crypt(x[:], x[:])
		subtle.XORBytes(pp[:], x[:], t2[:])
		copy(cc[:], pp[:])
		copy(cc[:], tail)
		copy(dst[n+BlockSize:], pp[:rem])
		subtle.XORBytes(x[:], cc[:], t[:])
		crypt(x[:], x[:])
		subtle.XORBytes(dst[n:n+BlockSize], x[:], t[:])
	}
	return nil
}
