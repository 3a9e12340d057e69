package main

import (
	"bytes"
	"hash/maphash"
	"sync"
	"time"

	"repro/internal/fio"
	"repro/internal/vtime"
)

// span is one traced op: a fio op through the tracker, or a timed call
// into a layer's public function from a probe.
type span struct {
	id        int64
	kind      string
	bytes     int64
	wallStart time.Duration // since traceEpoch
	wallEnd   time.Duration
	vArrival  vtime.Time
	vEnd      vtime.Time
}

// tracker wraps the fio Target. It counts attempted and failed ops,
// keeps every op's virtual latency (for the exact p99), captures each
// distinct write payload for the read-back check, and, while tracing is
// on, records one span per op.
type tracker struct {
	inner fio.Target
	// tracing is flipped only between fio.Run calls, never during one.
	tracing bool

	mu        sync.Mutex
	attempted int64
	failed    int64
	lats      []time.Duration
	spans     []span
	seen      map[*byte]bool
	payloads  map[uint64][][]byte // content hash -> distinct payloads
}

var payloadSeed = maphash.MakeSeed()

// traceEpoch is the zero of every span's wall-clock times.
var traceEpoch = time.Now()

func newTracker(inner fio.Target) *tracker {
	return &tracker{inner: inner, payloads: map[uint64][][]byte{}}
}

func (t *tracker) Size() int64 { return t.inner.Size() }

func (t *tracker) ReadAt(at vtime.Time, p []byte, off int64) (vtime.Time, error) {
	var w0 time.Duration
	if t.tracing {
		w0 = time.Since(traceEpoch)
	}
	end, err := t.inner.ReadAt(at, p, off)
	t.record("read", w0, at, end, int64(len(p)), err, nil)
	return end, err
}

func (t *tracker) WriteAt(at vtime.Time, p []byte, off int64) (vtime.Time, error) {
	var w0 time.Duration
	if t.tracing {
		w0 = time.Since(traceEpoch)
	}
	end, err := t.inner.WriteAt(at, p, off)
	t.record("write", w0, at, end, int64(len(p)), err, p)
	return end, err
}

func (t *tracker) record(kind string, w0 time.Duration, at, end vtime.Time, n int64, err error, payload []byte) {
	var w1 time.Duration
	if t.tracing {
		w1 = time.Since(traceEpoch)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		return
	}
	t.lats = append(t.lats, end.Sub(at))
	if t.tracing {
		t.spans = append(t.spans, span{id: t.attempted, kind: kind, bytes: n,
			wallStart: w0, wallEnd: w1, vArrival: at, vEnd: end})
	}
	if payload != nil && !t.seen[&payload[0]] {
		t.seen[&payload[0]] = true
		h := maphash.Bytes(payloadSeed, payload)
		for _, q := range t.payloads[h] {
			if bytes.Equal(q, payload) {
				return
			}
		}
		t.payloads[h] = append(t.payloads[h], bytes.Clone(payload))
	}
}

// run is one fio.Run through the tracker. The per-run seen set keys live
// buffers only: fio allocates fresh job buffers on every Run, and a stale
// address could be reused by another.
func (t *tracker) run(spec fio.Spec, at vtime.Time) (fio.Result, error) {
	t.seen = map[*byte]bool{}
	return fio.Run(spec, t, at)
}

// written returns every distinct payload the workload wrote.
func (t *tracker) written() [][]byte {
	var out [][]byte
	for _, ps := range t.payloads {
		out = append(out, ps...)
	}
	return out
}
