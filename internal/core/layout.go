package core

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/rados"
)

// Layout selects where per-sector metadata lives inside the virtual-disk
// mapping — the three alternatives of §3.1 (Fig. 2) plus the baseline.
type Layout int

// Layouts.
const (
	// LayoutNone stores no metadata (the LUKS2 baseline and the
	// deterministic wide-block scheme).
	LayoutNone Layout = iota
	// LayoutUnaligned stores each block's metadata contiguously after the
	// block: data|IV|data|IV|… (Fig. 2a).
	LayoutUnaligned
	// LayoutObjectEnd batches all of an object's metadata after the data
	// region, at the object end (Fig. 2b).
	LayoutObjectEnd
	// LayoutOMAP stores metadata in the per-object key-value database
	// (Fig. 2c).
	LayoutOMAP
)

// String implements fmt.Stringer.
func (l Layout) String() string {
	switch l {
	case LayoutNone:
		return "none"
	case LayoutUnaligned:
		return "unaligned"
	case LayoutObjectEnd:
		return "object-end"
	case LayoutOMAP:
		return "omap"
	default:
		return fmt.Sprintf("layout(%d)", int(l))
	}
}

// ParseLayout is the inverse of String.
func ParseLayout(s string) (Layout, error) {
	for _, l := range []Layout{LayoutNone, LayoutUnaligned, LayoutObjectEnd, LayoutOMAP} {
		if l.String() == s {
			return l, nil
		}
	}
	return 0, fmt.Errorf("core: unknown layout %q", s)
}

// omapIVPrefix namespaces IV entries in the object OMAP.
const omapIVPrefix = "iv."

// omapKeyLen is the encoded size of one OMAP IV key.
const omapKeyLen = len(omapIVPrefix) + 8

// omapIVKeyInto renders the IV key for block into k (omapKeyLen bytes).
func omapIVKeyInto(k []byte, block int64) {
	copy(k, omapIVPrefix)
	binary.BigEndian.PutUint64(k[len(omapIVPrefix):], uint64(block))
}

// omapIVKeyPairs returns value-less pairs naming the IV keys of blocks
// [startBlock, startBlock+nb), the keys sharing one arena: the request
// shape of an exact-key IV read (OpOmapGetKeys) and of a punch
// (OpOmapDel).
func omapIVKeyPairs(startBlock, nb int64) []rados.Pair {
	keys := make([]byte, nb*int64(omapKeyLen))
	pairs := make([]rados.Pair, nb)
	for b := range pairs {
		k := keys[b*omapKeyLen : (b+1)*omapKeyLen : (b+1)*omapKeyLen]
		omapIVKeyInto(k, startBlock+int64(b))
		pairs[b] = rados.Pair{Key: k}
	}
	return pairs
}

// planner turns an object-relative block run plus its ciphertext and
// metadata into op vectors, and parses read results back. All offsets are
// in blocks relative to the object start.
//
// metaLen is the STORED metadata per block: the scheme's IV/tag bytes
// plus — when epochTagged — the epochLen-byte key-epoch tag (images
// whose container predates the epoch table store scheme bytes only, and
// cannot re-key until reformatted). trackAlloc marks the metadata-free
// configuration (LayoutNone), which keeps presence and epoch in the
// allocation sidecar attribute instead.
type planner struct {
	layout      Layout
	blockSize   int64
	metaLen     int64
	objectSize  int64 // plaintext bytes per object (the data region size)
	trackAlloc  bool
	epochTagged bool
}

// objBlocks is the number of encryption blocks per object.
func (p *planner) objBlocks() int64 { return p.objectSize / p.blockSize }

// writeOps builds the atomic op vector persisting cipher (nb blocks) and
// metas (nb*metaLen bytes) for blocks [startBlock, startBlock+nb). It is
// the copying convenience used by tests and tools; the IO hot path seals
// directly into a writePlan's wire buffers instead.
func (p *planner) writeOps(startBlock int64, cipher, metas []byte) []rados.Op {
	nb := int64(len(cipher)) / p.blockSize
	w := p.newWritePlan(startBlock, nb)
	for b := int64(0); b < nb; b++ {
		copy(w.cipherDst(b), cipher[b*p.blockSize:(b+1)*p.blockSize])
		if p.metaLen > 0 {
			copy(w.metaDst(b), metas[b*p.metaLen:(b+1)*p.metaLen])
		}
	}
	// Deliberately never released: the caller owns the op buffers.
	return w.ops()
}

// writePlan stages one extent's wire buffers so the cryptor seals
// ciphertext and metadata directly where the RADOS ops will carry them —
// the layout-aware encryption target that removes the encrypt-then-copy
// stride shuffle from the write path. Buffers come from the datapath
// scratch pool; callers release() the plan once the transaction has been
// issued (Operate marshals payloads before returning, so the bytes are
// no longer referenced).
type writePlan struct {
	p     *planner
	start int64 // object-relative first block
	nb    int64
	wire  []byte // data region; stride-interleaved under LayoutUnaligned
	meta  []byte // separate metadata region (object-end, OMAP); nil otherwise
	keys  []byte // OMAP IV key arena (one pooled buffer for all keys)
}

// newWritePlan allocates pooled wire buffers for nb blocks at startBlock.
func (p *planner) newWritePlan(startBlock, nb int64) *writePlan {
	w := &writePlan{p: p, start: startBlock, nb: nb}
	switch p.layout {
	case LayoutUnaligned:
		w.wire = getBuf(int(nb * (p.blockSize + p.metaLen)))
	default:
		w.wire = getBuf(int(nb * p.blockSize))
		if p.metaLen > 0 {
			w.meta = getBuf(int(nb * p.metaLen))
		}
		if p.layout == LayoutOMAP {
			// All of the plan's OMAP keys share one arena: a large OMAP
			// write used to allocate one small key per block here.
			w.keys = getBuf(int(nb) * omapKeyLen)
		}
	}
	return w
}

// cipherDst returns block b's ciphertext destination inside the wire
// buffer. Under LayoutUnaligned the slice's capacity extends over the
// block's own metadata slot so an AEAD seal can append its tag in place
// (the cryptor relocates tag bytes within the slot afterwards).
func (w *writePlan) cipherDst(b int64) []byte {
	bs := w.p.blockSize
	if w.p.layout == LayoutUnaligned {
		stride := bs + w.p.metaLen
		return w.wire[b*stride : b*stride+bs : (b+1)*stride]
	}
	return w.wire[b*bs : (b+1)*bs : (b+1)*bs]
}

// metaDst returns block b's metadata destination (nil for metadata-free
// layouts).
func (w *writePlan) metaDst(b int64) []byte {
	ml := w.p.metaLen
	if ml == 0 {
		return nil
	}
	if w.p.layout == LayoutUnaligned {
		off := b*(w.p.blockSize+ml) + w.p.blockSize
		return w.wire[off : off+ml]
	}
	return w.meta[b*ml : (b+1)*ml]
}

// ops builds the atomic op vector over the staged buffers, zero-copy.
func (w *writePlan) ops() []rados.Op {
	p := w.p
	switch p.layout {
	case LayoutNone:
		return []rados.Op{{Kind: rados.OpWrite, Off: w.start * p.blockSize, Data: w.wire}}

	case LayoutUnaligned:
		stride := p.blockSize + p.metaLen
		return []rados.Op{{Kind: rados.OpWrite, Off: w.start * stride, Data: w.wire}}

	case LayoutObjectEnd:
		return []rados.Op{
			{Kind: rados.OpWrite, Off: w.start * p.blockSize, Data: w.wire},
			{Kind: rados.OpWrite, Off: p.objectSize + w.start*p.metaLen, Data: w.meta},
		}

	case LayoutOMAP:
		pairs := make([]rados.Pair, w.nb)
		for b := int64(0); b < w.nb; b++ {
			k := w.keys[b*int64(omapKeyLen) : (b+1)*int64(omapKeyLen) : (b+1)*int64(omapKeyLen)]
			omapIVKeyInto(k, w.start+b)
			pairs[b] = rados.Pair{
				Key:   k,
				Value: w.meta[b*p.metaLen : (b+1)*p.metaLen],
			}
		}
		return []rados.Op{
			{Kind: rados.OpWrite, Off: w.start * p.blockSize, Data: w.wire},
			{Kind: rados.OpOmapSet, Pairs: pairs},
		}
	}
	panic("core: unknown layout")
}

// release returns the plan's buffers to the scratch pool. Must not be
// called before every Operate using the plan's ops has returned.
func (w *writePlan) release() {
	putBuf(w.wire)
	if w.meta != nil {
		putBuf(w.meta)
	}
	if w.keys != nil {
		putBuf(w.keys)
	}
	w.wire, w.meta, w.keys = nil, nil, nil
}

// readOps builds the op vector fetching blocks [startBlock, startBlock+nb)
// with their metadata. The final op is always an OpStat: the object's
// logical size is the presence signal that distinguishes never-written
// (sparse) block runs from legitimately written ones, replacing the old
// all-zero-ciphertext sniffing that misread Decrypt(0) blocks as holes.
func (p *planner) readOps(startBlock, nb int64) []rados.Op {
	return p.readOpsInto(startBlock, nb, nil, nil)
}

// rawReadLen is the size of the raw data-read destination for nb blocks:
// the stride-interleaved stream under LayoutUnaligned, the plain
// ciphertext run otherwise.
func (p *planner) rawReadLen(nb int64) int64 {
	if p.layout == LayoutUnaligned {
		return nb * (p.blockSize + p.metaLen)
	}
	return nb * p.blockSize
}

// readOpsInto is readOps with destination plumbing for the in-process
// fast path: raw (rawReadLen bytes), when non-nil, receives the data
// read, and metas (nb*metaLen bytes) the object-end metadata read, so
// fetched bytes land straight in the caller's pooled buffers. Over the
// byte codec the destinations are ignored and the server allocates as
// before; parseReadInto handles both outcomes.
func (p *planner) readOpsInto(startBlock, nb int64, raw, metas []byte) []rados.Op {
	stat := rados.Op{Kind: rados.OpStat}
	switch p.layout {
	case LayoutNone:
		return []rados.Op{
			{Kind: rados.OpRead, Off: startBlock * p.blockSize, Len: nb * p.blockSize, Dst: raw},
			{Kind: rados.OpGetAttr, Key: []byte(allocAttr)},
			stat,
		}

	case LayoutUnaligned:
		stride := p.blockSize + p.metaLen
		return []rados.Op{{Kind: rados.OpRead, Off: startBlock * stride, Len: nb * stride, Dst: raw}, stat}

	case LayoutObjectEnd:
		return []rados.Op{
			{Kind: rados.OpRead, Off: startBlock * p.blockSize, Len: nb * p.blockSize, Dst: raw},
			{Kind: rados.OpRead, Off: p.objectSize + startBlock*p.metaLen, Len: nb * p.metaLen, Dst: metas},
			stat,
		}

	case LayoutOMAP:
		return []rados.Op{
			{Kind: rados.OpRead, Off: startBlock * p.blockSize, Len: nb * p.blockSize, Dst: raw},
			{Kind: rados.OpOmapGetKeys, Pairs: omapIVKeyPairs(startBlock, nb)},
			stat,
		}
	}
	panic("core: unknown layout")
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// sameBacking reports whether two slices share a backing array start —
// the Dst fast path, where a read result already IS the destination.
func sameBacking(a, b []byte) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// fillFrom lands src in dst: a plain copy normally, a no-op when the
// result already aliases the destination (in-process reads into Dst).
// Any destination tail beyond src is zeroed either way.
func fillFrom(dst, src []byte) {
	if sameBacking(dst, src) {
		clear(dst[len(src):])
		return
	}
	n := copy(dst, src)
	clear(dst[n:])
}

// parseRead extracts ciphertext and metadata from read results and
// reports, per block, whether the block was ever written. It is the
// allocating convenience wrapper around parseReadInto.
func (p *planner) parseRead(startBlock, nb int64, res []rados.Result) (cipher, metas []byte, present []bool, err error) {
	cipher = make([]byte, nb*p.blockSize)
	metas = make([]byte, nb*p.metaLen)
	pb := make([]byte, nb)
	if err := p.parseReadInto(startBlock, nb, res, cipher, metas, pb, nil); err != nil {
		return nil, nil, nil, err
	}
	present = make([]bool, nb)
	for i, v := range pb {
		present[i] = v != 0
	}
	return cipher, metas, present, nil
}

// parseReadInto fills caller-provided (typically pooled) buffers with the
// ciphertext and metadata of blocks [startBlock, startBlock+nb) and marks
// each block's presence. When epochs is non-nil (nb*epochLen bytes) it
// also receives each block's key-epoch tag, little-endian — from the
// metadata tail under the metadata layouts, from the allocation sidecar
// under LayoutNone. Presence is derived from the read results, never from
// the data content:
//
//   - object StatusNotFound       → every block absent (sparse read);
//   - the OpStat logical size     → a block whose stored footprint lies
//     fully beyond the object's logical size was never written;
//   - LayoutOMAP                  → a block is present iff its IV key
//     exists in the object database (exact per-block presence);
//   - LayoutNone                  → a block is present iff its bit is set
//     in the allocation sidecar (exact presence; objects written before
//     the sidecar existed fall back to the logical-size heuristic);
//   - metadata-bearing layouts    → an all-zero metadata slot inside the
//     logical size marks an interior hole (a real write leaves a random
//     IV there; the odds of a legitimate all-zero IV are ~2^-128).
//
// Data content is deliberately never sniffed: a written block whose
// ciphertext happens to be all zeros (plaintext Decrypt(0)) is present
// and decrypts normally.
func (p *planner) parseReadInto(startBlock, nb int64, res []rados.Result, cipher, metas, present, epochs []byte) error {
	clear(present[:nb])
	if epochs != nil {
		clear(epochs[:nb*epochLen])
	}

	if res[0].Status == rados.StatusNotFound {
		// The destinations may hold stale pool contents (an in-process
		// read into Dst never reached the store); make the hole explicit.
		clear(cipher[:nb*p.blockSize])
		clear(metas[:nb*p.metaLen])
		return nil
	}
	if err := res[0].Status.Err(); err != nil {
		return err
	}
	// The object's logical size, from the trailing OpStat.
	var size int64
	if st := res[len(res)-1]; st.Status == rados.StatusOK {
		size = st.Size
	}

	// copyEpochTails extracts the epoch tag from each present block's
	// stored metadata slot. Legacy (untagged) slots leave the epoch
	// buffer zero — epoch 0, the implicit master-key epoch.
	copyEpochTails := func() {
		if epochs == nil || !p.epochTagged {
			return
		}
		for b := int64(0); b < nb; b++ {
			if present[b] != 0 {
				copy(epochs[b*epochLen:(b+1)*epochLen], metas[(b+1)*p.metaLen-epochLen:(b+1)*p.metaLen])
			}
		}
	}

	switch p.layout {
	case LayoutNone:
		if len(res) != 3 {
			return fmt.Errorf("core: metadata-free read returned %d results", len(res))
		}
		fillFrom(cipher[:nb*p.blockSize], res[0].Data)
		if res[1].Status == rados.StatusOK {
			a, err := decodeObjAlloc(res[1].Data, p.objBlocks())
			if err != nil {
				return err
			}
			for b := int64(0); b < nb; b++ {
				if a.present(startBlock + b) {
					present[b] = 1
					if epochs != nil {
						binary.LittleEndian.PutUint32(epochs[b*epochLen:], a.epoch(startBlock+b))
					}
				}
			}
			return nil
		}
		// No sidecar (object written by a pre-sidecar build): fall back to
		// the logical-size heuristic — interior holes decrypt to
		// deterministic garbage, the contract dm-crypt gives.
		for b := int64(0); b < nb; b++ {
			present[b] = boolByte((startBlock+b+1)*p.blockSize <= size)
		}
		return nil

	case LayoutUnaligned:
		// The raw read is stride-interleaved and lands in its own buffer;
		// cipher and metas are always de-strided copies.
		clear(cipher[:nb*p.blockSize])
		clear(metas[:nb*p.metaLen])
		stride := p.blockSize + p.metaLen
		data := res[0].Data
		for b := int64(0); b < nb; b++ {
			if (b+1)*stride <= int64(len(data)) {
				copy(cipher[b*p.blockSize:(b+1)*p.blockSize], data[b*stride:b*stride+p.blockSize])
				copy(metas[b*p.metaLen:(b+1)*p.metaLen], data[b*stride+p.blockSize:(b+1)*stride])
			}
			present[b] = boolByte((startBlock+b+1)*stride <= size &&
				(p.metaLen == 0 || !allZero(metas[b*p.metaLen:(b+1)*p.metaLen])))
		}
		copyEpochTails()
		return nil

	case LayoutObjectEnd:
		if len(res) != 3 {
			return fmt.Errorf("core: object-end read returned %d results", len(res))
		}
		if err := res[1].Status.Err(); err != nil {
			return err
		}
		fillFrom(cipher[:nb*p.blockSize], res[0].Data)
		fillFrom(metas[:nb*p.metaLen], res[1].Data)
		for b := int64(0); b < nb; b++ {
			present[b] = boolByte(p.objectSize+(startBlock+b+1)*p.metaLen <= size &&
				!allZero(metas[b*p.metaLen:(b+1)*p.metaLen]))
		}
		copyEpochTails()
		return nil

	case LayoutOMAP:
		if len(res) != 3 {
			return fmt.Errorf("core: omap read returned %d results", len(res))
		}
		if err := res[1].Status.Err(); err != nil {
			return err
		}
		fillFrom(cipher[:nb*p.blockSize], res[0].Data)
		clear(metas[:nb*p.metaLen])
		for _, pair := range res[1].Pairs {
			if len(pair.Key) != len(omapIVPrefix)+8 || !bytes.HasPrefix(pair.Key, []byte(omapIVPrefix)) {
				continue
			}
			block := int64(binary.BigEndian.Uint64(pair.Key[len(omapIVPrefix):]))
			if block < startBlock || block >= startBlock+nb {
				continue
			}
			copy(metas[(block-startBlock)*p.metaLen:], pair.Value)
			present[block-startBlock] = 1
		}
		copyEpochTails()
		return nil
	}
	panic("core: unknown layout")
}

// probeOps builds the cheapest op vector that can answer "which of
// blocks [startBlock, startBlock+nb) were ever written?" — the presence
// probe behind clone read-through and copyup, where the caller wants the
// answer without paying for the ciphertext. Object-end and OMAP layouts
// fetch only their metadata region; the metadata-free configuration
// fetches only the allocation sidecar; the unaligned layout has no
// metadata region of its own to address, so it must fetch its
// interleaved stream (raw, rawReadLen bytes — the one layout where a
// probe costs a data read, another point against Fig. 2a). metas
// receives the object-end metadata read destination; both buffers may be
// nil over the byte codec. The result shape is always [probe, stat];
// parseProbe decodes it.
func (p *planner) probeOps(startBlock, nb int64, raw, metas []byte) []rados.Op {
	stat := rados.Op{Kind: rados.OpStat}
	switch p.layout {
	case LayoutNone:
		return []rados.Op{{Kind: rados.OpGetAttr, Key: []byte(allocAttr)}, stat}
	case LayoutUnaligned:
		stride := p.blockSize + p.metaLen
		return []rados.Op{{Kind: rados.OpRead, Off: startBlock * stride, Len: nb * stride, Dst: raw}, stat}
	case LayoutObjectEnd:
		return []rados.Op{
			{Kind: rados.OpRead, Off: p.objectSize + startBlock*p.metaLen, Len: nb * p.metaLen, Dst: metas},
			stat,
		}
	case LayoutOMAP:
		return []rados.Op{{Kind: rados.OpOmapGetKeys, Pairs: omapIVKeyPairs(startBlock, nb)}, stat}
	}
	panic("core: unknown layout")
}

// parseProbe decodes a probeOps result into per-block presence (and,
// when epochs is non-nil, key-epoch tags), applying exactly the presence
// rules of parseReadInto. metas is nb*metaLen scratch for the layouts
// that carry metadata (it receives the decoded slots).
func (p *planner) parseProbe(startBlock, nb int64, res []rados.Result, metas, present, epochs []byte) error {
	clear(present[:nb])
	if epochs != nil {
		clear(epochs[:nb*epochLen])
	}
	st := res[1]
	if st.Status == rados.StatusNotFound {
		return nil // object absent: every block a hole
	}
	if err := st.Status.Err(); err != nil {
		return err
	}
	size := st.Size

	copyEpochTails := func() {
		if epochs == nil || !p.epochTagged {
			return
		}
		for b := int64(0); b < nb; b++ {
			if present[b] != 0 {
				copy(epochs[b*epochLen:(b+1)*epochLen], metas[(b+1)*p.metaLen-epochLen:(b+1)*p.metaLen])
			}
		}
	}

	switch p.layout {
	case LayoutNone:
		if res[0].Status == rados.StatusOK {
			a, err := decodeObjAlloc(res[0].Data, p.objBlocks())
			if err != nil {
				return err
			}
			for b := int64(0); b < nb; b++ {
				if a.present(startBlock + b) {
					present[b] = 1
					if epochs != nil {
						binary.LittleEndian.PutUint32(epochs[b*epochLen:], a.epoch(startBlock+b))
					}
				}
			}
			return nil
		}
		// Pre-sidecar object: logical-size heuristic, implicit epoch 0.
		for b := int64(0); b < nb; b++ {
			present[b] = boolByte((startBlock+b+1)*p.blockSize <= size)
		}
		return nil

	case LayoutUnaligned:
		if res[0].Status == rados.StatusNotFound {
			return nil
		}
		if err := res[0].Status.Err(); err != nil {
			return err
		}
		clear(metas[:nb*p.metaLen])
		stride := p.blockSize + p.metaLen
		data := res[0].Data
		for b := int64(0); b < nb; b++ {
			if (b+1)*stride <= int64(len(data)) {
				copy(metas[b*p.metaLen:(b+1)*p.metaLen], data[b*stride+p.blockSize:(b+1)*stride])
			}
			present[b] = boolByte((startBlock+b+1)*stride <= size &&
				(p.metaLen == 0 || !allZero(metas[b*p.metaLen:(b+1)*p.metaLen])))
		}
		copyEpochTails()
		return nil

	case LayoutObjectEnd:
		if res[0].Status == rados.StatusNotFound {
			return nil
		}
		if err := res[0].Status.Err(); err != nil {
			return err
		}
		fillFrom(metas[:nb*p.metaLen], res[0].Data)
		for b := int64(0); b < nb; b++ {
			present[b] = boolByte(p.objectSize+(startBlock+b+1)*p.metaLen <= size &&
				!allZero(metas[b*p.metaLen:(b+1)*p.metaLen]))
		}
		copyEpochTails()
		return nil

	case LayoutOMAP:
		if res[0].Status == rados.StatusNotFound {
			return nil
		}
		if err := res[0].Status.Err(); err != nil {
			return err
		}
		clear(metas[:nb*p.metaLen])
		for _, pair := range res[0].Pairs {
			if len(pair.Key) != omapKeyLen || !bytes.HasPrefix(pair.Key, []byte(omapIVPrefix)) {
				continue
			}
			block := int64(binary.BigEndian.Uint64(pair.Key[len(omapIVPrefix):]))
			if block < startBlock || block >= startBlock+nb {
				continue
			}
			copy(metas[(block-startBlock)*p.metaLen:], pair.Value)
			present[block-startBlock] = 1
		}
		copyEpochTails()
		return nil
	}
	panic("core: unknown layout")
}

// discardOps builds the crypto-erase op vector for blocks
// [startBlock, startBlock+nb): the ciphertext region is overwritten with
// zeros and the per-block metadata punched (zeroed in place, or the OMAP
// keys deleted), so every presence rule reports a hole afterwards and no
// retained key can recover the data. Returned buffers come from the
// scratch pool; callers release() once every Operate has returned.
// LayoutNone relies on the allocation sidecar for presence — the caller
// appends the updated sidecar attribute to the same transaction.
func (p *planner) discardOps(startBlock, nb int64) (ops []rados.Op, release func()) {
	var bufs [][]byte
	zero := func(n int64) []byte {
		b := getZeroBuf(int(n))
		bufs = append(bufs, b)
		return b
	}
	release = func() {
		for _, b := range bufs {
			putBuf(b)
		}
	}
	switch p.layout {
	case LayoutNone:
		ops = []rados.Op{{Kind: rados.OpWrite, Off: startBlock * p.blockSize, Data: zero(nb * p.blockSize)}}
	case LayoutUnaligned:
		stride := p.blockSize + p.metaLen
		ops = []rados.Op{{Kind: rados.OpWrite, Off: startBlock * stride, Data: zero(nb * stride)}}
	case LayoutObjectEnd:
		ops = []rados.Op{
			{Kind: rados.OpWrite, Off: startBlock * p.blockSize, Data: zero(nb * p.blockSize)},
			{Kind: rados.OpWrite, Off: p.objectSize + startBlock*p.metaLen, Data: zero(nb * p.metaLen)},
		}
	case LayoutOMAP:
		ops = []rados.Op{
			{Kind: rados.OpWrite, Off: startBlock * p.blockSize, Data: zero(nb * p.blockSize)},
			{Kind: rados.OpOmapDel, Pairs: omapIVKeyPairs(startBlock, nb)},
		}
	default:
		panic("core: unknown layout")
	}
	return ops, release
}

// SectorCount is the §3.3 analytic model: the minimum number of physical
// 4 KiB device sectors a single IO of ioBytes must touch under each
// layout (the paper's "4KB write needs 2 sectors vs 1; 32KB needs 9 vs 8"
// discussion). OMAP metadata does not consume data-path sectors — its
// cost is in the database — so its count matches the baseline.
func SectorCount(l Layout, ioBytes, blockSize, metaLen int64) int64 {
	if ioBytes <= 0 || blockSize <= 0 {
		return 0
	}
	nb := (ioBytes + blockSize - 1) / blockSize
	dataSectors := nb
	switch l {
	case LayoutNone, LayoutOMAP:
		return dataSectors
	case LayoutObjectEnd:
		// The batched IV region adds ceil(nb*metaLen / sector) sectors.
		return dataSectors + (nb*metaLen+blockSize-1)/blockSize
	case LayoutUnaligned:
		// The interleaved stream occupies ceil(nb*(block+meta)/sector)
		// sectors: §3.3's "a 4KB write needs 2 sectors" / "a 32KB IO
		// typically requires 9 sectors versus 8". (An IO that starts
		// mid-object can straddle one more boundary, but the paper's
		// counts — and this minimum — are for the aligned start.)
		span := nb * (blockSize + metaLen)
		return (span + blockSize - 1) / blockSize
	}
	return dataSectors
}
