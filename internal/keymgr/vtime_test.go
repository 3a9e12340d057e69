package keymgr

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/rados"
	"repro/internal/rbd"
	"repro/internal/simdisk"
	"repro/internal/telemetry"
	"repro/internal/vtime"
)

// wantPinnedVTime is the virtual time TestVirtualTimePinned ends at. The
// cost model charges by sizes and counts, never by how fast the Go code
// runs, so a change that only speeds up (or slows down) the real
// datapath — the ciphers above all — must leave it unchanged to the
// nanosecond.
const wantPinnedVTime vtime.Time = 26645618

// TestVirtualTimePinned pins the virtual-time cost model end to end on
// xts-rand/object-end: fixed writes, a read-back of the whole image, one
// keymgr rotation and a second read-back, issued one after another, each
// op within one object. One replica keeps replica-ack ordering out of the
// figure, and the process-wide tracer samples no op here: a sampled
// reply carries hop records the wire model charges for, and which ops
// the every-Nth stream samples depends on what ran before in the
// process. So the figure repeats exactly run after run.
func TestVirtualTimePinned(t *testing.T) {
	telemetry.Ops.SetSampleEvery(math.MaxInt64)
	defer telemetry.Ops.SetSampleEvery(64)
	cfg := rados.DefaultClusterConfig()
	cfg.DisksPerOSD = 2
	cfg.Replicas = 1
	cfg.DiskSectors = (768 << 20) / simdisk.SectorSize
	cfg.PGNum = 16
	cfg.Blob.ObjectCapacity = 1<<20 + 64<<10
	cfg.Blob.KVBytes = 64 << 20
	cfg.Blob.KV.MemtableBytes = 256 << 10
	cfg.Blob.KV.WALBytes = 4 << 20
	cl, err := rados.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	client := cl.NewClient("vtime-pin")
	const size = 4 << 20
	at, err := rbd.CreateWithObjectSize(0, client, "rbd", "pin", size, objSize)
	if err != nil {
		t.Fatal(err)
	}
	img, at, err := rbd.Open(at, client, "rbd", "pin")
	if err != nil {
		t.Fatal(err)
	}
	if at, err = core.Format(at, img, []byte("s3cret"), core.Options{Scheme: core.SchemeXTSRand, Layout: core.LayoutObjectEnd, ClientCores: 1}); err != nil {
		t.Fatal(err)
	}
	e, at, err := core.Load(at, img, []byte("s3cret"))
	if err != nil {
		t.Fatal(err)
	}

	model := make([]byte, size)
	for i, w := range []struct{ off, n int64 }{
		{0, 4 << 10}, {12 << 10, 64 << 10}, {1<<20 - 16<<10, 16 << 10},
		{2 << 20, 1 << 20}, {3<<20 + 4<<10, 4 << 10}, {3<<20 + 100<<10, 256 << 10},
	} {
		p := model[w.off : w.off+w.n]
		for j := range p {
			p[j] = byte(i*31 + j*7)
		}
		if at, err = e.WriteAt(at, p, w.off); err != nil {
			t.Fatal(err)
		}
	}
	readBack := func(what string) {
		t.Helper()
		got := make([]byte, objSize)
		for off := int64(0); off < size; off += objSize {
			if at, err = e.ReadAt(at, got, off); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, model[off:off+objSize]) {
				t.Fatalf("%s: object at %d reads back other data than was written", what, off)
			}
		}
	}
	readBack("before rekey")
	r, at, err := Start(at, e)
	if err != nil {
		t.Fatal(err)
	}
	if at, err = r.Run(at); err != nil {
		t.Fatal(err)
	}
	readBack("after rekey")
	if at != wantPinnedVTime {
		t.Fatalf("virtual time %d ns, want %d ns", int64(at), int64(wantPinnedVTime))
	}
}
