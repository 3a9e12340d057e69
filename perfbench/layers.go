package main

import (
	"crypto/aes"
	"crypto/cipher"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"repro/internal/blobstore"
	"repro/internal/core"
	"repro/internal/crypto/xts"
	"repro/internal/fio"
	"repro/internal/kvstore"
	"repro/internal/rados"
	"repro/internal/rbd"
	"repro/internal/simdisk"
	"repro/internal/telemetry"
)

// probeTime bounds each serial probe; probes run after the timed phase.
const probeTime = 300 * time.Millisecond

// counters is a snapshot of the stats the layers export.
type counters struct {
	disk                        simdisk.Stats
	kv                          kvstore.Stats
	blob                        blobstore.Stats
	clientReqs, osdReqs, wireB  int64
	poolGets, poolMisses        int64
	mallocs, allocBytes, numGCs uint64
}

func snapshot(c *rados.Cluster) counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return counters{
		disk:       c.DiskStats(),
		kv:         c.KVStats(),
		blob:       c.BlobStats(),
		clientReqs: family("client_requests_total", ""),
		osdReqs:    family("osd_requests_total", ""),
		wireB:      family("msgr_bytes_total", ""),
		poolGets:   family("bufpool_gets_total", ""),
		poolMisses: family("bufpool_gets_total", `result="miss"`),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		numGCs:     uint64(ms.NumGC),
	}
}

// family sums the counters of a telemetry.Default family over the series
// whose rendered labels contain label.
func family(name, label string) int64 {
	var sum int64
	for _, f := range telemetry.Default.Families() {
		if f.Name() != name {
			continue
		}
		f.EachSeries(func(labels string, c *telemetry.Counter, _ *telemetry.Gauge, _ *telemetry.Histogram) {
			if c != nil && strings.Contains(labels, label) {
				sum += c.Value()
			}
		})
	}
	return sum
}

func ratio(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}

// layerMetrics computes the per-layer metrics of a traced run: ratios of
// the timed phase's counter deltas, span statistics, and serial probes
// into each layer's public functions. Probe spans join ph.spans.
func layerMetrics(cfg config, e *env, ph *phase, m map[string]metric) error {
	b, a := ph.before, ph.after
	ops, user := float64(ph.ops), float64(ph.bytes)
	gb, sectors := user/1e9, user/simdisk.SectorSize
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	put("rados.requests_per_op", "1/op", ratio(float64(a.clientReqs-b.clientReqs), ops))
	put("rados.osd_requests_per_op", "1/op", ratio(float64(a.osdReqs-b.osdReqs), ops))
	put("msgr.wire_bytes_per_user_byte", "B/B", ratio(float64(a.wireB-b.wireB), user))

	put("blobstore.txns_per_op", "1/op", ratio(float64(a.blob.Txns-b.blob.Txns), ops))
	put("blobstore.deferred_writes_per_op", "1/op", ratio(float64(a.blob.DeferredWrites-b.blob.DeferredWrites), ops))
	put("blobstore.rmw_reads_per_op", "1/op", ratio(float64(a.blob.RMWReads-b.blob.RMWReads), ops))
	hits, misses := float64(a.blob.CacheHits-b.blob.CacheHits), float64(a.blob.CacheMisses-b.blob.CacheMisses)
	put("blobstore.cache_hit_ratio", "ratio", ratio(hits, hits+misses))

	put("kvstore.entries_per_op", "1/op", ratio(float64(a.kv.EntriesWritten-b.kv.EntriesWritten), ops))
	put("kvstore.gets_per_op", "1/op", ratio(float64(a.kv.Gets-b.kv.Gets), ops))
	put("kvstore.scans_per_op", "1/op", ratio(float64(a.kv.Scans-b.kv.Scans), ops))
	put("kvstore.flushes_per_gb", "1/GB", ratio(float64(a.kv.Flushes-b.kv.Flushes), gb))
	put("kvstore.compacted_bytes_per_user_byte", "B/B", ratio(float64(a.kv.BytesCompacted-b.kv.BytesCompacted), user))

	put("simdisk.write_sectors_per_user_sector", "ratio", ratio(float64(a.disk.SectorsWritten-b.disk.SectorsWritten), sectors))
	put("simdisk.read_sectors_per_user_sector", "ratio", ratio(float64(a.disk.SectorsRead-b.disk.SectorsRead), sectors))
	put("simdisk.write_ops_per_op", "1/op", ratio(float64(a.disk.WriteOps-b.disk.WriteOps), ops))
	put("simdisk.read_ops_per_op", "1/op", ratio(float64(a.disk.ReadOps-b.disk.ReadOps), ops))

	put("bufpool.miss_ratio", "ratio", ratio(float64(a.poolMisses-b.poolMisses), float64(a.poolGets-b.poolGets)))
	put("runtime.allocs_per_op", "1/op", ratio(float64(a.mallocs-b.mallocs), ops))
	put("runtime.alloc_kb_per_op", "KiB/op", ratio(float64(a.allocBytes-b.allocBytes)/1024, ops))
	put("runtime.gc_per_gb", "1/GB", ratio(float64(a.numGCs-b.numGCs), gb))

	put("fio.effective_qd", "count", ratio(float64(ph.latSum), float64(ph.virtSpan)))
	// Whole-phase wall-clock cost, from the untraced units only.
	untraced := ratio(float64(ph.untraced.bytes), ph.untraced.wall.Seconds())
	traced := ratio(float64(ph.traced.bytes), ph.traced.wall.Seconds())
	put("wall_mbps", "MB/s", untraced/1e6)
	put("cpu_s_per_gb", "s/GB", ratio(ph.untraced.cpu.Seconds(), float64(ph.untraced.bytes)/1e9))
	put("peak_rss_mb", "MB", ph.peakRSSMB)
	put("trace.overhead_share", "ratio", 1-ratio(traced, untraced))

	// The timed phase's spans: fio ops through the tracker, or rekey steps.
	var qd32 time.Duration
	for _, s := range ph.spans {
		qd32 += s.wallEnd - s.wallStart
	}
	opQD32 := ratio(float64(qd32.Microseconds()), float64(len(ph.spans)))

	seal, open, err := cryptoProbe(cfg.w.scheme, ph)
	if err != nil {
		return err
	}
	put("crypto.seal_mbps", "MB/s", seal)
	put("crypto.open_mbps", "MB/s", open)

	coreUs, err := opProbe(cfg, e, e.enc, "probe-core", ph)
	if err != nil {
		return fmt.Errorf("core probe: %w", err)
	}
	radosUs, err := radosProbe(cfg, e, ph)
	if err != nil {
		return fmt.Errorf("rados probe: %w", err)
	}
	put("core.op_us_qd1", "us", coreUs)
	put("core.op_us_qd32", "us", opQD32)
	put("core.wait_us", "us", opQD32-coreUs)
	put("core.overhead_us", "us", coreUs-radosUs)
	put("rados.op_us_qd1", "us", radosUs)

	// keymgr: the timed rotations on rekey, one probe rotation elsewhere.
	steps := ph.spans
	if !cfg.w.rekey {
		steps = nil
		if _, err := rotate(e, func(s span) {
			s.kind = "probe-keymgr-step"
			steps = append(steps, s)
		}); err != nil {
			return fmt.Errorf("keymgr probe: %w", err)
		}
		ph.spans = append(ph.spans, steps...)
	}
	var wall, virt []time.Duration
	var blocks int64
	for _, s := range steps {
		wall = append(wall, s.wallEnd-s.wallStart)
		virt = append(virt, s.vEnd.Sub(s.vArrival))
		blocks += s.bytes / blockSize
	}
	put("keymgr.step_ms_wall", "ms", float64(quantile(wall, 0.5))/1e6)
	put("keymgr.step_ms_virt", "ms", float64(quantile(virt, 0.5))/1e6)
	put("keymgr.blocks_per_step", "1/op", ratio(float64(blocks), float64(len(steps))))
	return nil
}

// cryptoProbe runs the workload's cipher primitive from one goroutine
// over 4 KiB blocks and returns the median seal and open MB/s of five
// slices each.
func cryptoProbe(s core.Scheme, ph *phase) (seal, open float64, err error) {
	key := make([]byte, 64)
	rand.New(rand.NewSource(1)).Read(key)
	src := make([]byte, blockSize)
	dst := make([]byte, blockSize+16)
	out := make([]byte, blockSize)
	var sealOne, openOne func(i uint64) error
	switch s {
	case core.SchemeXTSRand:
		c, err := xts.NewCipher(key)
		if err != nil {
			return 0, 0, err
		}
		sealOne = func(i uint64) error { return c.Encrypt(dst[:blockSize], src, xts.SectorTweak(i)) }
		openOne = func(i uint64) error { return c.Decrypt(out, dst[:blockSize], xts.SectorTweak(i)) }
	case core.SchemeGCM:
		blk, err := aes.NewCipher(key[:32])
		if err != nil {
			return 0, 0, err
		}
		g, err := cipher.NewGCM(blk)
		if err != nil {
			return 0, 0, err
		}
		nonce, aad := make([]byte, g.NonceSize()), make([]byte, 8)
		sealOne = func(uint64) error { g.Seal(dst[:0], nonce, src, aad); return nil }
		openOne = func(uint64) error { _, err := g.Open(out[:0], nonce, dst, aad); return err }
		if err := sealOne(0); err != nil {
			return 0, 0, err
		}
	default:
		return 0, 0, fmt.Errorf("no crypto probe for scheme %v", s)
	}
	rate := func(kind string, f func(uint64) error) (float64, error) {
		var mbps []float64
		for slice := 0; slice < 5; slice++ {
			w0 := time.Since(traceEpoch)
			var n uint64
			for t0 := time.Now(); time.Since(t0) < probeTime/5; n++ {
				if err := f(n); err != nil {
					return 0, err
				}
			}
			w1 := time.Since(traceEpoch)
			ph.spans = append(ph.spans, span{kind: kind, bytes: int64(n) * blockSize, wallStart: w0, wallEnd: w1})
			mbps = append(mbps, float64(n)*blockSize/(w1-w0).Seconds()/1e6)
		}
		return median(mbps), nil
	}
	if seal, err = rate("probe-crypto-seal", sealOne); err != nil {
		return 0, 0, err
	}
	open, err = rate("probe-crypto-open", openOne)
	return seal, open, err
}

// opProbe issues the workload's op serially against target, at seeded
// offsets, and returns its mean wall time in microseconds. A write op
// writes back what an untimed read just returned, so image contents do
// not change.
func opProbe(cfg config, e *env, target fio.Target, kind string, ph *phase) (float64, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	buf := make([]byte, cfg.w.bs)
	write := cfg.w.rekey || !cfg.w.pattern.Reads()
	var total time.Duration
	n := 0
	for t0 := time.Now(); n < 5 || time.Since(t0) < probeTime; n++ {
		off := rng.Int63n(target.Size()/cfg.w.bs) * cfg.w.bs
		var err error
		if write {
			if e.now, err = target.ReadAt(e.now, buf, off); err != nil {
				return 0, err
			}
		}
		at, w0 := e.now, time.Since(traceEpoch)
		if write {
			e.now, err = target.WriteAt(at, buf, off)
		} else {
			e.now, err = target.ReadAt(at, buf, off)
		}
		w1 := time.Since(traceEpoch)
		if err != nil {
			return 0, err
		}
		total += w1 - w0
		ph.spans = append(ph.spans, span{kind: kind, bytes: cfg.w.bs, wallStart: w0, wallEnd: w1, vArrival: at, vEnd: e.now})
	}
	return float64(total.Microseconds()) / float64(n), nil
}

// radosProbe runs opProbe against a plain, preconditioned rbd image on
// the same cluster: the same op without the encryption layer.
func radosProbe(cfg config, e *env, ph *phase) (float64, error) {
	size := max(16<<20, 4*cfg.w.bs)
	now, err := rbd.Create(e.now, e.client, "rbd", "plain", size)
	if err != nil {
		return 0, err
	}
	img, now, err := rbd.Open(now, e.client, "rbd", "plain")
	if err != nil {
		return 0, err
	}
	if e.now, err = fio.Precondition(img, 0, blockSize, now); err != nil {
		return 0, err
	}
	return opProbe(cfg, e, img, "probe-rados", ph)
}
