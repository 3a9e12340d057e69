package main

import (
	"crypto/aes"
	"crypto/cipher"
)

// refWorkSeconds is the CPU time refWork takes on the 2-vCPU VM this
// benchmark was written on, while that host is quiet. setup_s is set-up
// CPU time expressed at that speed.
const refWorkSeconds = 0.180

// refWorkRounds is how many 1 MiB buffers one refWork call encrypts.
const refWorkRounds = 64

// refBlock is refWork's cipher; the key is fixed and irrelevant.
var refBlock, _ = aes.NewCipher(make([]byte, 32))

// refSink keeps refWork's output alive.
var refSink byte

// refWork runs a fixed piece of standard-library work shaped like
// set-up's CPU profile and returns the CPU seconds it took. Set-up spends
// about three quarters of its CPU in XTS encryption of the precondition
// data (single-block AES, XOR with the tweak, tweak doubling) and most of
// the rest copying and clearing buffers; refWork does the same in that
// proportion. It calls no code of the repository, so no change to the
// program moves it: only the host's speed does. Set-up time over refWork
// time is therefore a measure of set-up's work that holds still when the
// host's speed drifts.
func refWork() float64 {
	buf := make([]byte, 1<<20)
	dst := make([]byte, 1<<20)
	c0 := cpuTime()
	for range refWorkRounds {
		xtsLike(refBlock, buf)
		copy(dst, buf)
		clear(buf)
	}
	refSink = dst[7]
	return (cpuTime() - c0).Seconds()
}

// xtsLike encrypts buf in place block by block the way XTS does, with a
// tweak that starts at one.
func xtsLike(b cipher.Block, buf []byte) {
	t := [16]byte{1}
	for i := 0; i+16 <= len(buf); i += 16 {
		p := buf[i : i+16]
		for j := range 16 {
			p[j] ^= t[j]
		}
		b.Encrypt(p, p)
		for j := range 16 {
			p[j] ^= t[j]
		}
		var carry byte
		for j := range 16 {
			next := t[j] >> 7
			t[j] = t[j]<<1 | carry
			carry = next
		}
		if carry != 0 {
			t[0] ^= 0x87
		}
	}
}
