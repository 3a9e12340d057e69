package rados

import (
	"bytes"
	"testing"

	"repro/internal/msgr"
)

// fuzzSeedRequests are valid wire messages seeding the corpus with every
// op kind and both large (referenced) and small (inlined) payloads.
func fuzzSeedRequests() [][]byte {
	reqs := []*Request{
		{Pool: "rbd", Object: "rbd_data.img.0000", Ops: []Op{{Kind: OpRead, Off: 4096, Len: 8192}}},
		{Pool: "rbd", Object: "o", SnapID: 3, SnapSeq: 9, Replica: true, Ops: []Op{
			{Kind: OpWrite, Off: 0, Data: bytes.Repeat([]byte{0xC3}, 4096)},
			{Kind: OpOmapSet, Pairs: []Pair{{Key: []byte("iv.0"), Value: bytes.Repeat([]byte{7}, 16)}, {Key: []byte("k"), Value: nil}}},
			{Kind: OpSetAttr, Key: []byte("rados.snapset"), Data: []byte("v")},
		}},
		{Pool: "", Object: "", Ops: []Op{
			{Kind: OpOmapGetRange, Key: []byte("iv."), Key2: []byte("iv/"), Len: 42},
			{Kind: OpStat},
			{Kind: OpDelete},
			{Kind: OpTruncate, Off: 123},
			{Kind: OpGetAttr, Key: []byte("a")},
			{Kind: OpOmapDel, Pairs: []Pair{{Key: []byte("x")}}},
		}},
		{Pool: "rbd", Object: "rbd_data.img.0002", Ops: []Op{
			{Kind: OpRead, Off: 0, Len: 4096},
			{Kind: OpOmapGetKeys, Pairs: []Pair{{Key: []byte("iv.\x00\x00\x00\x00\x00\x00\x00\x00")}, {Key: []byte("iv.\x00\x00\x00\x00\x00\x00\x00\x01")}}},
			{Kind: OpStat},
		}},
	}
	out := make([][]byte, len(reqs))
	for i, q := range reqs {
		out[i] = q.Marshal()
	}
	return out
}

// FuzzUnmarshalRequest pins the request codec: no panic on arbitrary
// input, and on any accepted input the parsed form is a marshal fixed
// point (unmarshal∘marshal = id), with the scatter-gather encoding and
// WireLen agreeing with the flat codec byte for byte.
func FuzzUnmarshalRequest(f *testing.F) {
	for _, seed := range fuzzSeedRequests() {
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, b []byte) {
		q, err := UnmarshalRequest(b)
		if err != nil {
			return
		}
		m := q.Marshal()
		q2, err := UnmarshalRequest(m)
		if err != nil {
			t.Fatalf("re-unmarshal of own marshal failed: %v", err)
		}
		m2 := q2.Marshal()
		if !bytes.Equal(m, m2) {
			t.Fatalf("marshal not a fixed point:\n%x\n%x", m, m2)
		}
		segs, hdr := q.MarshalV(nil)
		_ = hdr
		if joined := msgr.JoinSegs(segs); !bytes.Equal(joined, m) {
			t.Fatalf("MarshalV diverges from Marshal:\n%x\n%x", joined, m)
		}
		if q.WireLen() != len(m) {
			t.Fatalf("WireLen %d != len(Marshal) %d", q.WireLen(), len(m))
		}
	})
}

// FuzzUnmarshalReply is the reply-side twin of FuzzUnmarshalRequest.
func FuzzUnmarshalReply(f *testing.F) {
	seeds := []*Reply{
		{Results: []Result{{Status: StatusOK, Size: 77, Data: bytes.Repeat([]byte{1}, 4096)}}},
		{Results: []Result{
			{Status: StatusNotFound},
			{Status: StatusOK, Pairs: []Pair{{Key: []byte("iv.0"), Value: bytes.Repeat([]byte{9}, 16)}}},
			{Status: StatusInvalid, Data: []byte("short")},
		}},
		{},
	}
	for _, p := range seeds {
		f.Add(p.Marshal())
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := UnmarshalReply(b)
		if err != nil {
			return
		}
		m := p.Marshal()
		p2, err := UnmarshalReply(m)
		if err != nil {
			t.Fatalf("re-unmarshal of own marshal failed: %v", err)
		}
		m2 := p2.Marshal()
		if !bytes.Equal(m, m2) {
			t.Fatalf("marshal not a fixed point:\n%x\n%x", m, m2)
		}
		segs, _ := p.MarshalV(nil)
		if joined := msgr.JoinSegs(segs); !bytes.Equal(joined, m) {
			t.Fatalf("MarshalV diverges from Marshal:\n%x\n%x", joined, m)
		}
		if p.WireLen() != len(m) {
			t.Fatalf("WireLen %d != len(Marshal) %d", p.WireLen(), len(m))
		}
	})
}
