package main

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/fio"
	"repro/internal/rados"
	"repro/internal/rbd"
	"repro/internal/vtime"
)

// Fixed shape of every workload. The cluster is the paper's (§3.2:
// 3 OSDs × 9 disks, 3 replicas, 4 MB objects, default cost models) with
// one change: the kvstore memtable is shrunk to 256 KiB so OMAP metadata
// outgrows it, as it would on the paper's 64 GiB image.
const (
	maxProcs      = 2
	queueDepth    = 32
	memtableBytes = 256 << 10
	imageBytes    = 256 << 20
	blockSize     = core.DefaultBlockSize
	passphrase    = "perfbench"
)

// workload is one named benchmark input. Rekey workloads walk the whole
// image with keymgr from one goroutine; the others run fio at QD 32 in a
// closed loop.
type workload struct {
	name    string
	scheme  core.Scheme
	layout  core.Layout
	pattern fio.Pattern
	bs      int64
	rekey   bool
	// opsPerSecond sizes a fio workload's warm-up and timed phase: a
	// fixed op count per second of -seconds, about what one wall second
	// held on a 2-vCPU VM. A fixed count keeps the virtual workload a
	// function of the seed alone, whatever the host's speed.
	opsPerSecond int
}

var workloads = []workload{
	// Per-op overhead dominates: core, rados, blobstore and allocation
	// work shows here, crypto little.
	{name: "objend-4k-randwrite", scheme: core.SchemeXTSRand, layout: core.LayoutObjectEnd, pattern: fio.RandWrite, bs: 4 << 10, opsPerSecond: 20000},
	// The read path with no XTS at all, and OMAP metadata larger than the
	// memtable: kvstore and read-path work shows here, XTS work must not.
	{name: "omap-gcm-4k-randread", scheme: core.SchemeGCM, layout: core.LayoutOMAP, pattern: fio.RandRead, bs: 4 << 10, opsPerSecond: 50000},
	// The only workload that runs keymgr: whole-image rotations back to
	// back from one goroutine, bound by XTS decrypt and encrypt.
	{name: "objend-rekey", scheme: core.SchemeXTSRand, layout: core.LayoutObjectEnd, bs: 4 << 20, rekey: true},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// clusterConfig is the paper cluster with retained data, so every read
// can be verified (a cost-only cluster reads back zeros).
func clusterConfig() rados.ClusterConfig {
	cfg := rados.DefaultClusterConfig()
	cfg.Blob.KV.MemtableBytes = memtableBytes
	return cfg
}

// env is a built cluster holding one formatted, preconditioned image.
type env struct {
	cluster *rados.Cluster
	client  *rados.Client
	enc     *core.EncryptedImage
	now     vtime.Time
	want    *contents
}

func (e *env) close() { e.cluster.Close() }

// setup builds the cluster, formats the image and preconditions it. On
// the rekey workload it then discards a seeded tail of every object, so
// the seed decides how many blocks each rekey step re-seals.
func setup(w workload, imageBytes, seed int64) (*env, error) {
	cluster, err := rados.NewCluster(clusterConfig())
	if err != nil {
		return nil, err
	}
	e := &env{cluster: cluster, client: cluster.NewClient("perfbench")}
	if err := e.format(w, imageBytes, seed); err != nil {
		cluster.Close()
		return nil, err
	}
	return e, nil
}

func (e *env) format(w workload, imageBytes, seed int64) error {
	now, err := rbd.Create(0, e.client, "rbd", "bench", imageBytes)
	if err != nil {
		return fmt.Errorf("create image: %w", err)
	}
	img, now, err := rbd.Open(now, e.client, "rbd", "bench")
	if err != nil {
		return fmt.Errorf("open image: %w", err)
	}
	now, err = core.Format(now, img, []byte(passphrase), core.Options{Scheme: w.scheme, Layout: w.layout})
	if err != nil {
		return fmt.Errorf("format: %w", err)
	}
	e.enc, now, err = core.Load(now, img, []byte(passphrase))
	if err != nil {
		return fmt.Errorf("load: %w", err)
	}
	e.want = recordContents(e.enc)
	now, err = fio.Precondition(e.want, 0, blockSize, now)
	if err != nil {
		return fmt.Errorf("precondition: %w", err)
	}
	if w.rekey {
		objSize := img.ObjectSize()
		rng := rand.New(rand.NewSource(seed))
		for obj := int64(0); obj < e.enc.ObjectCount(); obj++ {
			n := rng.Int63n(objSize/blockSize/2) * blockSize
			if n == 0 {
				continue
			}
			off := (obj+1)*objSize - n
			if now, err = e.enc.Discard(now, off, n); err != nil {
				return fmt.Errorf("discard: %w", err)
			}
			e.want.punch(off, n)
		}
	}
	e.now = now
	return nil
}
