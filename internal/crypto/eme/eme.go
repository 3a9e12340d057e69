// Package eme implements an EME-style wide-block tweakable cipher
// (Encrypt-Mix-Encrypt, Halevi–Rogaway), the construction family behind
// the IEEE 1619.2 wide-block standards (EME2-AES) discussed in §2.2 of
// the paper as a mitigation: with a wide-block cipher, every plaintext
// bit influences the whole sector, so a deterministic overwrite only
// reveals whether the *entire sector* changed, not which 16-byte
// sub-block.
//
// The implementation follows the classic two-pass ECB–mix–ECB structure
// with tweak mixing. IEEE 1619.2 test vectors are not available offline,
// so this package is validated by construction properties instead:
// exact invertibility for every length, and full-block diffusion (see the
// tests). Treat it as a faithful behavioural stand-in rather than an
// interoperable EME2 implementation — DESIGN.md records this substitution.
//
// The classical EME security bound holds for up to 128 AES blocks
// (2048 bytes); this implementation accepts up to 512 blocks so it can
// cover 4 KiB sectors the way EME2 does, trading the proof bound for the
// paper's use case.
//
// The whitening masks depend only on the key and are precomputed in New,
// so each ECB pass is one XOR over the unit plus one AES call per block,
// worked in dst. Calls allocate nothing. dst may alias src exactly;
// partial overlap is not supported.
package eme

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
)

// BlockSize is the underlying AES block size.
const BlockSize = 16

// MaxBlocks bounds the data unit length.
const MaxBlocks = 512

// TweakSize is the tweak size in bytes.
const TweakSize = 16

var (
	// ErrDataSize reports an unsupported data unit length.
	ErrDataSize = errors.New("eme: data must be a multiple of 16 bytes, between 16 and 8192")
)

// Cipher is a wide-block cipher instance. It is safe for concurrent use.
type Cipher struct {
	block cipher.Block
	// masks holds the whitening masks L·2^i for i < MaxBlocks, with
	// L = 2·E_K(0). They depend only on the key, so both passes apply
	// them as one XOR over the whole data unit.
	masks [MaxBlocks * BlockSize]byte
}

var le = binary.LittleEndian

// New creates a wide-block cipher from a 16, 24 or 32-byte AES key.
func New(key []byte) (*Cipher, error) {
	b, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	c := &Cipher{block: b}
	b.Encrypt(c.masks[:BlockSize], c.masks[:BlockSize])
	lo, hi := le.Uint64(c.masks[:8]), le.Uint64(c.masks[8:])
	for i := 0; i < len(c.masks); i += BlockSize {
		lo, hi = mul2(lo, hi)
		le.PutUint64(c.masks[i:], lo)
		le.PutUint64(c.masks[i+8:], hi)
	}
	return c, nil
}

// mul2 multiplies the 128-bit value hi:lo by x in GF(2^128): lo holds
// bytes 0..7 and hi bytes 8..15, both little-endian, and the carry out of
// bit 127 folds back as 0x87.
func mul2(lo, hi uint64) (uint64, uint64) {
	return lo<<1 ^ 0x87&-(hi>>63), hi<<1 | lo>>63
}

func checkSize(n int) error {
	if n < BlockSize || n%BlockSize != 0 || n > MaxBlocks*BlockSize {
		return fmt.Errorf("%w (got %d)", ErrDataSize, n)
	}
	return nil
}

// Encrypt computes the wide-block encryption of src into dst under
// tweak. dst may alias src exactly; partial overlap is not supported.
func (c *Cipher) Encrypt(dst, src []byte, tweak [TweakSize]byte) error {
	return c.process(dst, src, tweak, true)
}

// Decrypt reverses Encrypt, with the same aliasing rule.
func (c *Cipher) Decrypt(dst, src []byte, tweak [TweakSize]byte) error {
	return c.process(dst, src, tweak, false)
}

func (c *Cipher) process(dst, src []byte, tweak [TweakSize]byte, enc bool) error {
	if err := checkSize(len(src)); err != nil {
		return err
	}
	if len(dst) < len(src) {
		return errors.New("eme: dst shorter than src")
	}
	crypt := c.block.Encrypt
	if !enc {
		crypt = c.block.Decrypt
	}
	d := dst[:len(src)]
	masks := c.masks[:len(src)]

	// Pass 1: whiten with the mask table and apply ECB.
	subtle.XORBytes(d, src, masks)
	for i := 0; i < len(d); i += BlockSize {
		crypt(d[i:i+BlockSize], d[i:i+BlockSize])
	}

	// Mix: fold everything plus the tweak into a mask applied to blocks
	// 2..m; block 1 carries the correction so the transform inverts.
	var spLo, spHi uint64
	for i := 0; i < len(d); i += BlockSize {
		spLo ^= le.Uint64(d[i:])
		spHi ^= le.Uint64(d[i+8:])
	}
	twLo, twHi := le.Uint64(tweak[:8]), le.Uint64(tweak[8:])
	mpLo, mpHi := spLo^twLo, spHi^twHi
	// Block 1 is folded into sp and rewritten last, so MC = E(MP) is
	// ciphered in its place.
	le.PutUint64(d[:8], mpLo)
	le.PutUint64(d[8:], mpHi)
	crypt(d[:BlockSize], d[:BlockSize])
	mcLo, mcHi := le.Uint64(d[:8]), le.Uint64(d[8:])

	mLo, mHi := mpLo^mcLo, mpHi^mcHi
	var accLo, accHi uint64
	for i := BlockSize; i < len(d); i += BlockSize {
		lo, hi := le.Uint64(d[i:])^mLo, le.Uint64(d[i+8:])^mHi
		le.PutUint64(d[i:], lo)
		le.PutUint64(d[i+8:], hi)
		accLo ^= lo
		accHi ^= hi
		mLo, mHi = mul2(mLo, mHi)
	}
	le.PutUint64(d[:8], mcLo^twLo^accLo)
	le.PutUint64(d[8:], mcHi^twHi^accHi)

	// Pass 2: ECB and unwhiten.
	for i := 0; i < len(d); i += BlockSize {
		crypt(d[i:i+BlockSize], d[i:i+BlockSize])
	}
	subtle.XORBytes(d, d, masks)
	return nil
}
