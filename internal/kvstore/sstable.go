package kvstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"

	"repro/internal/vtime"
)

// File is the byte-granular, virtual-time-charged device view the store
// persists through. *simdisk.Partition satisfies it.
type File interface {
	ReadAt(at vtime.Time, p []byte, off int64) (vtime.Time, error)
	WriteAt(at vtime.Time, p []byte, off int64) (vtime.Time, error)
	Size() int64
}

// ErrCorrupt reports an on-media structure that failed validation.
var ErrCorrupt = errors.New("kvstore: corrupt structure")

const (
	tableMagic    = 0x53535442 // "SSTB"
	tableVersion  = 1
	footerSize    = 48
	maxEntryKey   = 1 << 16
	maxEntryValue = 1 << 30
)

// cursor threads virtual time through a chain of dependent media reads.
type cursor struct{ at vtime.Time }

func (c *cursor) advance(t vtime.Time) {
	if t > c.at {
		c.at = t
	}
}

// ---- entry encoding (shared by WAL and SSTable blocks) ----

func encodedEntrySize(e memEntry) int { return 1 + 2 + 4 + len(e.key) + len(e.value) }

func appendEntry(buf []byte, e memEntry) []byte {
	buf = append(buf, byte(e.kind))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(e.key)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.value)))
	buf = append(buf, e.key...)
	buf = append(buf, e.value...)
	return buf
}

// decodeEntry parses one entry; its key and value alias b.
func decodeEntry(b []byte) (e memEntry, n int, err error) {
	if len(b) < 7 {
		return e, 0, fmt.Errorf("%w: truncated entry header", ErrCorrupt)
	}
	e.kind = entryKind(b[0])
	if e.kind != kindPut && e.kind != kindDelete {
		return e, 0, fmt.Errorf("%w: bad entry kind %d", ErrCorrupt, b[0])
	}
	klen := int(binary.LittleEndian.Uint16(b[1:3]))
	vlen := int(binary.LittleEndian.Uint32(b[3:7]))
	if vlen > maxEntryValue {
		return e, 0, fmt.Errorf("%w: oversized value", ErrCorrupt)
	}
	n = 7 + klen + vlen
	if len(b) < n {
		return e, 0, fmt.Errorf("%w: truncated entry body", ErrCorrupt)
	}
	e.key = b[7 : 7+klen : 7+klen]
	e.value = b[7+klen : n : n]
	return e, n, nil
}

// ---- table building ----

type blockMeta struct {
	off      int64 // within the segment
	length   int32
	firstKey []byte
}

// table is an immutable sorted run. Index and bloom filter live in memory
// (RocksDB keeps them in block cache); data blocks are read from media on
// demand so lookups and scans are charged to the device model.
type table struct {
	file       File
	segOff     int64
	segLen     int64
	index      []blockMeta
	bloom      *bloomFilter
	minKey     []byte
	maxKey     []byte
	numEntries int64
}

// buildTable serializes sorted entries (no duplicate keys) into segment
// bytes and returns the parsed table (with segOff unset; the store fills
// it after allocating a segment).
func buildTable(entries []memEntry, blockBytes, bloomBitsPerKey int) (*table, []byte) {
	if blockBytes <= 0 {
		blockBytes = 4096
	}
	t := &table{numEntries: int64(len(entries))}
	bloom := newBloom(len(entries), bloomBitsPerKey)
	var seg []byte
	var blockBuf []byte
	var blockCount uint32
	var blockFirst []byte

	flushBlock := func() {
		if blockCount == 0 {
			return
		}
		hdr := binary.LittleEndian.AppendUint32(nil, blockCount)
		block := append(hdr, blockBuf...)
		t.index = append(t.index, blockMeta{
			off:      int64(len(seg)),
			length:   int32(len(block)),
			firstKey: blockFirst,
		})
		seg = append(seg, block...)
		blockBuf, blockCount, blockFirst = nil, 0, nil
	}

	for _, e := range entries {
		bloom.add(e.key)
		if blockCount == 0 {
			blockFirst = append([]byte(nil), e.key...)
		}
		blockBuf = appendEntry(blockBuf, e)
		blockCount++
		if len(blockBuf) >= blockBytes {
			flushBlock()
		}
	}
	flushBlock()

	if len(entries) > 0 {
		t.minKey = append([]byte(nil), entries[0].key...)
		t.maxKey = append([]byte(nil), entries[len(entries)-1].key...)
	}
	t.bloom = bloom

	// Index section.
	indexOff := int64(len(seg))
	var idx []byte
	idx = binary.LittleEndian.AppendUint16(idx, uint16(len(t.minKey)))
	idx = append(idx, t.minKey...)
	idx = binary.LittleEndian.AppendUint16(idx, uint16(len(t.maxKey)))
	idx = append(idx, t.maxKey...)
	idx = binary.LittleEndian.AppendUint32(idx, uint32(len(t.index)))
	for _, bm := range t.index {
		idx = binary.LittleEndian.AppendUint64(idx, uint64(bm.off))
		idx = binary.LittleEndian.AppendUint32(idx, uint32(bm.length))
		idx = binary.LittleEndian.AppendUint16(idx, uint16(len(bm.firstKey)))
		idx = append(idx, bm.firstKey...)
	}
	seg = append(seg, idx...)

	bloomOff := int64(len(seg))
	bl := bloom.marshal()
	seg = append(seg, bl...)

	// Footer.
	footer := make([]byte, 0, footerSize)
	footer = binary.LittleEndian.AppendUint32(footer, tableMagic)
	footer = binary.LittleEndian.AppendUint32(footer, tableVersion)
	footer = binary.LittleEndian.AppendUint64(footer, uint64(indexOff))
	footer = binary.LittleEndian.AppendUint32(footer, uint32(len(idx)))
	footer = binary.LittleEndian.AppendUint64(footer, uint64(bloomOff))
	footer = binary.LittleEndian.AppendUint32(footer, uint32(len(bl)))
	footer = binary.LittleEndian.AppendUint64(footer, uint64(len(entries)))
	footer = binary.LittleEndian.AppendUint32(footer, crc32.ChecksumIEEE(footer))
	footer = footer[:footerSize] // 44 used + zero pad to 48
	for len(footer) < footerSize {
		footer = append(footer, 0)
	}
	seg = append(seg, footer...)
	t.segLen = int64(len(seg))
	return t, seg
}

// openTable parses a table whose segment occupies [segOff, segOff+segLen)
// of file, reading the footer, index and bloom filter from media.
func openTable(c *cursor, file File, segOff, segLen int64) (*table, error) {
	if segLen < footerSize {
		return nil, fmt.Errorf("%w: segment too small", ErrCorrupt)
	}
	foot := make([]byte, footerSize)
	end, err := file.ReadAt(c.at, foot, segOff+segLen-footerSize)
	if err != nil {
		return nil, err
	}
	c.advance(end)
	if binary.LittleEndian.Uint32(foot[0:4]) != tableMagic {
		return nil, fmt.Errorf("%w: bad table magic", ErrCorrupt)
	}
	crc := binary.LittleEndian.Uint32(foot[40:44])
	if crc32.ChecksumIEEE(foot[:40]) != crc {
		return nil, fmt.Errorf("%w: bad footer crc", ErrCorrupt)
	}
	indexOff := int64(binary.LittleEndian.Uint64(foot[8:16]))
	indexLen := int64(binary.LittleEndian.Uint32(foot[16:20]))
	bloomOff := int64(binary.LittleEndian.Uint64(foot[20:28]))
	bloomLen := int64(binary.LittleEndian.Uint32(foot[28:32]))
	numEntries := int64(binary.LittleEndian.Uint64(foot[32:40]))
	if indexOff < 0 || indexOff+indexLen > segLen || bloomOff < 0 || bloomOff+bloomLen > segLen {
		return nil, fmt.Errorf("%w: footer offsets out of range", ErrCorrupt)
	}

	t := &table{file: file, segOff: segOff, segLen: segLen, numEntries: numEntries}

	idx := make([]byte, indexLen)
	end, err = file.ReadAt(c.at, idx, segOff+indexOff)
	if err != nil {
		return nil, err
	}
	c.advance(end)
	p := 0
	readKey := func() ([]byte, error) {
		if p+2 > len(idx) {
			return nil, fmt.Errorf("%w: truncated index", ErrCorrupt)
		}
		n := int(binary.LittleEndian.Uint16(idx[p:]))
		p += 2
		if p+n > len(idx) {
			return nil, fmt.Errorf("%w: truncated index key", ErrCorrupt)
		}
		k := append([]byte(nil), idx[p:p+n]...)
		p += n
		return k, nil
	}
	if t.minKey, err = readKey(); err != nil {
		return nil, err
	}
	if t.maxKey, err = readKey(); err != nil {
		return nil, err
	}
	if p+4 > len(idx) {
		return nil, fmt.Errorf("%w: truncated index count", ErrCorrupt)
	}
	nblocks := int(binary.LittleEndian.Uint32(idx[p:]))
	p += 4
	for i := 0; i < nblocks; i++ {
		if p+14 > len(idx) {
			return nil, fmt.Errorf("%w: truncated block meta", ErrCorrupt)
		}
		bm := blockMeta{
			off:    int64(binary.LittleEndian.Uint64(idx[p:])),
			length: int32(binary.LittleEndian.Uint32(idx[p+8:])),
		}
		p += 12
		n := int(binary.LittleEndian.Uint16(idx[p:]))
		p += 2
		if p+n > len(idx) {
			return nil, fmt.Errorf("%w: truncated block first key", ErrCorrupt)
		}
		bm.firstKey = append([]byte(nil), idx[p:p+n]...)
		p += n
		t.index = append(t.index, bm)
	}

	bl := make([]byte, bloomLen)
	end, err = file.ReadAt(c.at, bl, segOff+bloomOff)
	if err != nil {
		return nil, err
	}
	c.advance(end)
	t.bloom = unmarshalBloom(bl)
	return t, nil
}

// blockFor returns the index of the block that may contain key, or -1.
func (t *table) blockFor(key []byte) int {
	// Binary search for the last block whose firstKey <= key.
	lo, hi, ans := 0, len(t.index)-1, -1
	for lo <= hi {
		mid := (lo + hi) / 2
		if bytes.Compare(t.index[mid].firstKey, key) <= 0 {
			ans = mid
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	return ans
}

// readBlock fetches and decodes one data block from media. The entries
// alias the block's own freshly read buffer, which nothing else holds.
func (t *table) readBlock(c *cursor, i int) ([]memEntry, error) {
	bm := t.index[i]
	raw := make([]byte, bm.length)
	end, err := t.file.ReadAt(c.at, raw, t.segOff+bm.off)
	if err != nil {
		return nil, err
	}
	c.advance(end)
	if len(raw) < 4 {
		return nil, fmt.Errorf("%w: short block", ErrCorrupt)
	}
	count := int(binary.LittleEndian.Uint32(raw[:4]))
	entries := make([]memEntry, 0, count)
	p := 4
	for j := 0; j < count; j++ {
		e, n, err := decodeEntry(raw[p:])
		if err != nil {
			return nil, err
		}
		p += n
		entries = append(entries, e)
	}
	return entries, nil
}

// overlaps reports whether t may hold a key in [lo, hi) (empty lo or hi
// means unbounded on that side).
func (t *table) overlaps(lo, hi []byte) bool {
	if len(t.index) == 0 {
		return false
	}
	if len(hi) > 0 && bytes.Compare(t.minKey, hi) >= 0 {
		return false
	}
	return len(lo) == 0 || bytes.Compare(t.maxKey, lo) >= 0
}

// readBlockEntry is a data block one lookup has already read.
type readBlockEntry struct {
	bi      int
	entries []memEntry
}

// lookup resolves the keys whose hits are still unset and that t may
// hold: a key outside [minKey, maxKey] or rejected by the bloom filter
// costs nothing, and each data block the rest need is read once. It
// returns the number of keys resolved, tombstones included.
func (t *table) lookup(c *cursor, keys [][]byte, hits []keyHit) (int, error) {
	if len(t.index) == 0 {
		return 0, nil
	}
	var read []readBlockEntry // sorted keys ask for the last block read
	resolved := 0
	for i, key := range keys {
		if hits[i].kind != 0 || bytes.Compare(key, t.minKey) < 0 || bytes.Compare(key, t.maxKey) > 0 ||
			!t.bloom.mayContain(key) {
			continue
		}
		bi := t.blockFor(key)
		r := len(read) - 1
		for r >= 0 && read[r].bi != bi {
			r--
		}
		if r < 0 {
			entries, err := t.readBlock(c, bi)
			if err != nil {
				return resolved, err
			}
			read = append(read, readBlockEntry{bi, entries})
			r = len(read) - 1
		}
		// Entries inside a block are sorted.
		entries := read[r].entries
		j, ok := slices.BinarySearchFunc(entries, key, func(e memEntry, k []byte) int { return bytes.Compare(e.key, k) })
		if ok {
			hits[i] = keyHit{value: entries[j].value, kind: entries[j].kind}
			resolved++
		}
	}
	return resolved, nil
}

// ---- iterators ----

// iterator walks entries in ascending key order. Implementations surface
// media errors from next().
type iterator interface {
	valid() bool
	entry() memEntry
	next() error
}

// memIterAdapter adapts the memtable iterator to the iterator interface.
type memIterAdapter struct{ it *memtableIter }

func (a memIterAdapter) valid() bool     { return a.it.valid() }
func (a memIterAdapter) entry() memEntry { return a.it.entry() }
func (a memIterAdapter) next() error     { a.it.next(); return nil }

// tableIter iterates a table's entries, reading one block at a time.
type tableIter struct {
	t     *table
	c     *cursor
	block []memEntry
	bi    int // current block index
	ei    int // entry index within block
}

// newTableIter positions the iterator at the first key >= start
// (or the table start when start is empty).
func newTableIter(c *cursor, t *table, start []byte) (*tableIter, error) {
	it := &tableIter{t: t, c: c}
	if len(t.index) == 0 {
		it.bi = len(t.index)
		return it, nil
	}
	it.bi = 0
	if len(start) > 0 {
		if b := t.blockFor(start); b > 0 {
			it.bi = b
		}
	}
	if err := it.load(); err != nil {
		return nil, err
	}
	// Skip entries before start.
	for len(start) > 0 && it.valid() && bytes.Compare(it.entry().key, start) < 0 {
		if err := it.next(); err != nil {
			return nil, err
		}
	}
	return it, nil
}

func (it *tableIter) load() error {
	for it.bi < len(it.t.index) {
		b, err := it.t.readBlock(it.c, it.bi)
		if err != nil {
			return err
		}
		if len(b) > 0 {
			it.block, it.ei = b, 0
			return nil
		}
		it.bi++
	}
	it.block = nil
	return nil
}

func (it *tableIter) valid() bool     { return it.block != nil && it.ei < len(it.block) }
func (it *tableIter) entry() memEntry { return it.block[it.ei] }

func (it *tableIter) next() error {
	it.ei++
	if it.ei < len(it.block) {
		return nil
	}
	it.bi++
	return it.load()
}

// mergeIter merges several sources. Sources are listed strongest-first:
// on equal keys the earliest source wins and the duplicates are skipped.
type mergeIter struct {
	sources []iterator
	cur     int // index of source holding the current entry, -1 when done
}

func newMergeIter(sources []iterator) (*mergeIter, error) {
	m := &mergeIter{sources: sources}
	if err := m.settle(); err != nil {
		return nil, err
	}
	return m, nil
}

// settle finds the smallest current key, resolving ties by precedence, and
// advances shadowed duplicates past it.
func (m *mergeIter) settle() error {
	m.cur = -1
	var best []byte
	for i, s := range m.sources {
		if !s.valid() {
			continue
		}
		k := s.entry().key
		if m.cur == -1 || bytes.Compare(k, best) < 0 {
			m.cur, best = i, k
		}
	}
	if m.cur == -1 {
		return nil
	}
	// Advance weaker sources sitting on the same key.
	for i := m.cur + 1; i < len(m.sources); i++ {
		s := m.sources[i]
		for s.valid() && bytes.Equal(s.entry().key, best) {
			if err := s.next(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (m *mergeIter) valid() bool { return m.cur >= 0 }

func (m *mergeIter) entry() memEntry { return m.sources[m.cur].entry() }

func (m *mergeIter) next() error {
	if m.cur < 0 {
		return nil
	}
	if err := m.sources[m.cur].next(); err != nil {
		return err
	}
	return m.settle()
}
