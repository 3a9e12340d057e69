package main

import (
	"fmt"
	"hash/maphash"
	"sync"

	"repro/internal/fio"
	"repro/internal/vtime"
)

// contents holds the hash of every block's expected content after setup:
// what preconditioning wrote, or zeros where setup discarded.
type contents struct {
	inner fio.Target
	block []uint64
}

func blockHash(b []byte) uint64 { return maphash.Bytes(payloadSeed, b) }

// recordContents wraps a target for preconditioning, hashing every block
// each write lays down. Precondition writes disjoint ranges, so its
// concurrent writers never touch the same element.
func recordContents(inner fio.Target) *contents {
	return &contents{inner: inner, block: make([]uint64, inner.Size()/blockSize)}
}

func (c *contents) Size() int64 { return c.inner.Size() }

func (c *contents) ReadAt(at vtime.Time, p []byte, off int64) (vtime.Time, error) {
	return c.inner.ReadAt(at, p, off)
}

func (c *contents) WriteAt(at vtime.Time, p []byte, off int64) (vtime.Time, error) {
	end, err := c.inner.WriteAt(at, p, off)
	if err == nil {
		for i := int64(0); i < int64(len(p)); i += blockSize {
			c.block[(off+i)/blockSize] = blockHash(p[i : i+blockSize])
		}
	}
	return end, err
}

// punch records that [off, off+n) now reads as zeros.
func (c *contents) punch(off, n int64) {
	zero := blockHash(make([]byte, blockSize))
	for b := off / blockSize; b < (off+n)/blockSize; b++ {
		c.block[b] = zero
	}
}

// verify reads the whole image back and checks every block: it must hold
// its setup content or, when payloads is non-empty, the block at the same
// position of one of the payloads a bs-sized write laid down.
func verify(target fio.Target, want *contents, payloads [][]byte, bs int64) error {
	perOp := bs / blockSize
	allowed := make([]map[uint64]bool, perOp)
	for k := range allowed {
		allowed[k] = map[uint64]bool{}
		for _, p := range payloads {
			allowed[k][blockHash(p[int64(k)*blockSize:int64(k+1)*blockSize])] = true
		}
	}
	const chunk = 1 << 20
	size := target.Size()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		next     int64
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	claim := func() int64 {
		mu.Lock()
		defer mu.Unlock()
		off := next
		next += chunk
		if firstErr != nil {
			return size
		}
		return off
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, chunk)
			for off := claim(); off < size; off = claim() {
				n := min(int64(chunk), size-off)
				if _, err := target.ReadAt(0, buf[:n], off); err != nil {
					fail(fmt.Errorf("read back off=%d: %w", off, err))
					return
				}
				for i := int64(0); i < n; i += blockSize {
					b := (off + i) / blockSize
					h := blockHash(buf[i : i+blockSize])
					if h != want.block[b] && !allowed[b%perOp][h] {
						fail(fmt.Errorf("block at off=%d holds neither its setup content nor a written payload", b*blockSize))
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
