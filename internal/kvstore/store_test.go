package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/simdisk"
)

func newTestFile(t *testing.T, mb int64) *simdisk.Partition {
	t.Helper()
	d := simdisk.New("kv", mb*256, simdisk.DefaultCostModel()) // mb MiB
	return simdisk.NewPartition(d, 0, d.Sectors())
}

func smallConfig() Config {
	return Config{
		MemtableBytes: 16 << 10, // tiny, to exercise flush/compaction
		WALBytes:      64 << 10,
		Fanout:        3,
		MaxLevels:     3,
	}
}

func mustOpen(t *testing.T, f File, cfg Config) *Store {
	t.Helper()
	s, _, err := Open(0, f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func apply1(t *testing.T, s *Store, k, v string) {
	t.Helper()
	var b Batch
	b.Put([]byte(k), []byte(v))
	if _, err := s.Apply(0, &b); err != nil {
		t.Fatal(err)
	}
}

func get(t *testing.T, s *Store, k string) (string, bool) {
	t.Helper()
	v, ok, _, err := s.Get(0, []byte(k))
	if err != nil {
		t.Fatal(err)
	}
	return string(v), ok
}

func TestBasicPutGet(t *testing.T) {
	s := mustOpen(t, newTestFile(t, 16), smallConfig())
	apply1(t, s, "alpha", "1")
	apply1(t, s, "beta", "2")
	if v, ok := get(t, s, "alpha"); !ok || v != "1" {
		t.Fatalf("alpha = %q,%v", v, ok)
	}
	if v, ok := get(t, s, "beta"); !ok || v != "2" {
		t.Fatalf("beta = %q,%v", v, ok)
	}
	if _, ok := get(t, s, "gamma"); ok {
		t.Fatal("gamma should be absent")
	}
}

func TestOverwriteAndDelete(t *testing.T) {
	s := mustOpen(t, newTestFile(t, 16), smallConfig())
	apply1(t, s, "k", "v1")
	apply1(t, s, "k", "v2")
	if v, _ := get(t, s, "k"); v != "v2" {
		t.Fatalf("k = %q", v)
	}
	var b Batch
	b.Delete([]byte("k"))
	if _, err := s.Apply(0, &b); err != nil {
		t.Fatal(err)
	}
	if _, ok := get(t, s, "k"); ok {
		t.Fatal("k should be deleted")
	}
}

func TestDeleteSurvivesFlushShadowing(t *testing.T) {
	s := mustOpen(t, newTestFile(t, 16), smallConfig())
	apply1(t, s, "k", "old")
	if _, err := s.Flush(0); err != nil {
		t.Fatal(err)
	}
	var b Batch
	b.Delete([]byte("k"))
	if _, err := s.Apply(0, &b); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Flush(0); err != nil {
		t.Fatal(err)
	}
	// The tombstone in the newer table must shadow the old value.
	if _, ok := get(t, s, "k"); ok {
		t.Fatal("tombstone failed to shadow flushed value")
	}
}

func TestBatchAtomicVisibility(t *testing.T) {
	s := mustOpen(t, newTestFile(t, 16), smallConfig())
	var b Batch
	for i := 0; i < 100; i++ {
		b.Put([]byte(fmt.Sprintf("key%03d", i)), []byte(fmt.Sprintf("val%03d", i)))
	}
	if b.Len() != 100 || b.Bytes() == 0 {
		t.Fatalf("batch accounting: len=%d bytes=%d", b.Len(), b.Bytes())
	}
	if _, err := s.Apply(0, &b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if v, ok := get(t, s, fmt.Sprintf("key%03d", i)); !ok || v != fmt.Sprintf("val%03d", i) {
			t.Fatalf("key%03d = %q,%v", i, v, ok)
		}
	}
}

func TestScanRangeAndLimit(t *testing.T) {
	s := mustOpen(t, newTestFile(t, 16), smallConfig())
	for i := 0; i < 50; i++ {
		apply1(t, s, fmt.Sprintf("k%02d", i), fmt.Sprintf("v%02d", i))
	}
	kvs, _, err := s.Scan(0, []byte("k10"), []byte("k20"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 10 {
		t.Fatalf("scan returned %d", len(kvs))
	}
	for i, kv := range kvs {
		if want := fmt.Sprintf("k%02d", 10+i); string(kv.Key) != want {
			t.Fatalf("kvs[%d].Key = %q want %q", i, kv.Key, want)
		}
	}
	kvs, _, err = s.Scan(0, nil, nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 7 {
		t.Fatalf("limited scan returned %d", len(kvs))
	}
}

func TestScanSkipsTombstonesAcrossLevels(t *testing.T) {
	s := mustOpen(t, newTestFile(t, 16), smallConfig())
	for i := 0; i < 20; i++ {
		apply1(t, s, fmt.Sprintf("k%02d", i), "x")
	}
	if _, err := s.Flush(0); err != nil {
		t.Fatal(err)
	}
	var b Batch
	for i := 0; i < 20; i += 2 {
		b.Delete([]byte(fmt.Sprintf("k%02d", i)))
	}
	if _, err := s.Apply(0, &b); err != nil {
		t.Fatal(err)
	}
	kvs, _, err := s.Scan(0, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 10 {
		t.Fatalf("scan returned %d want 10", len(kvs))
	}
	for _, kv := range kvs {
		var n int
		fmt.Sscanf(string(kv.Key), "k%d", &n)
		if n%2 == 0 {
			t.Fatalf("deleted key %q visible", kv.Key)
		}
	}
}

func TestDeleteRange(t *testing.T) {
	s := mustOpen(t, newTestFile(t, 16), smallConfig())
	for i := 0; i < 30; i++ {
		apply1(t, s, fmt.Sprintf("k%02d", i), "x")
	}
	n, _, err := s.DeleteRange(0, []byte("k05"), []byte("k15"))
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("deleted %d want 10", n)
	}
	kvs, _, _ := s.Scan(0, nil, nil, 0)
	if len(kvs) != 20 {
		t.Fatalf("left %d want 20", len(kvs))
	}
}

func TestFlushAndCompactionKeepData(t *testing.T) {
	cfg := smallConfig()
	s := mustOpen(t, newTestFile(t, 64), cfg)
	// Write enough to force several flushes and at least one compaction.
	val := bytes.Repeat([]byte{0xAB}, 128)
	for i := 0; i < 800; i++ {
		var b Batch
		b.Put([]byte(fmt.Sprintf("key%04d", i%400)), val)
		if _, err := s.Apply(0, &b); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Flushes == 0 || st.Compactions == 0 {
		t.Fatalf("expected flush+compaction activity, got %+v", st)
	}
	for i := 0; i < 400; i++ {
		if _, ok := get(t, s, fmt.Sprintf("key%04d", i)); !ok {
			t.Fatalf("key%04d lost after compaction", i)
		}
	}
	counts := s.TableCounts()
	for lvl, c := range counts {
		if c >= cfg.Fanout+1 {
			t.Fatalf("level %d has %d tables, compaction not keeping up", lvl, c)
		}
	}
}

func TestReopenRecoversFromWAL(t *testing.T) {
	f := newTestFile(t, 16)
	cfg := smallConfig()
	s := mustOpen(t, f, cfg)
	apply1(t, s, "persisted", "yes")
	apply1(t, s, "another", "val")
	// No flush: data only in WAL + memtable. Reopen must replay.
	s2 := mustOpen(t, f, cfg)
	if v, ok := get(t, s2, "persisted"); !ok || v != "yes" {
		t.Fatalf("persisted = %q,%v", v, ok)
	}
	if v, ok := get(t, s2, "another"); !ok || v != "val" {
		t.Fatalf("another = %q,%v", v, ok)
	}
}

func TestReopenRecoversFlushedAndWAL(t *testing.T) {
	f := newTestFile(t, 16)
	cfg := smallConfig()
	s := mustOpen(t, f, cfg)
	for i := 0; i < 100; i++ {
		apply1(t, s, fmt.Sprintf("f%03d", i), "flushed")
	}
	if _, err := s.Flush(0); err != nil {
		t.Fatal(err)
	}
	apply1(t, s, "walonly", "fresh")
	s2 := mustOpen(t, f, cfg)
	if v, ok := get(t, s2, "f050"); !ok || v != "flushed" {
		t.Fatalf("f050 = %q,%v", v, ok)
	}
	if v, ok := get(t, s2, "walonly"); !ok || v != "fresh" {
		t.Fatalf("walonly = %q,%v", v, ok)
	}
	// Sequence numbers must not regress after recovery.
	apply1(t, s2, "walonly", "fresher")
	if v, _ := get(t, s2, "walonly"); v != "fresher" {
		t.Fatal("post-recovery write lost")
	}
}

func TestPowerCutTornBatchDiscarded(t *testing.T) {
	d := simdisk.New("kv", 16*256, simdisk.DefaultCostModel())
	f := simdisk.NewPartition(d, 0, d.Sectors())
	cfg := smallConfig()
	s := mustOpen(t, f, cfg)
	apply1(t, s, "committed", "1")

	// Cut power on the very next write: the WAL append is dropped.
	d.PowerCutAfter(0)
	var b Batch
	b.Put([]byte("torn"), []byte("x"))
	if _, err := s.Apply(0, &b); err == nil {
		t.Fatal("expected power cut error")
	}
	d.PowerRestore()

	s2 := mustOpen(t, f, cfg)
	if v, ok := get(t, s2, "committed"); !ok || v != "1" {
		t.Fatalf("committed = %q,%v", v, ok)
	}
	if _, ok := get(t, s2, "torn"); ok {
		t.Fatal("torn batch must not be visible after recovery")
	}
}

func TestWALRotationOnFull(t *testing.T) {
	cfg := smallConfig()
	cfg.WALBytes = 16 << 10
	cfg.MemtableBytes = 1 << 20 // flushes only happen due to WAL pressure
	s := mustOpen(t, newTestFile(t, 32), cfg)
	val := bytes.Repeat([]byte{1}, 1024)
	for i := 0; i < 100; i++ {
		var b Batch
		b.Put([]byte(fmt.Sprintf("k%03d", i)), val)
		if _, err := s.Apply(0, &b); err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
	}
	if s.Stats().Flushes == 0 {
		t.Fatal("WAL pressure should have forced flushes")
	}
	for i := 0; i < 100; i++ {
		if _, ok := get(t, s, fmt.Sprintf("k%03d", i)); !ok {
			t.Fatalf("k%03d lost across WAL rotation", i)
		}
	}
}

func TestOversizedBatchRejected(t *testing.T) {
	cfg := smallConfig()
	cfg.WALBytes = 8 << 10
	s := mustOpen(t, newTestFile(t, 32), cfg)
	var b Batch
	b.Put([]byte("big"), bytes.Repeat([]byte{1}, 32<<10))
	if _, err := s.Apply(0, &b); err == nil {
		t.Fatal("expected oversized batch rejection")
	}
}

func TestEmptyBatchNoop(t *testing.T) {
	s := mustOpen(t, newTestFile(t, 16), smallConfig())
	var b Batch
	end, err := s.Apply(42, &b)
	if err != nil || end != 42 {
		t.Fatalf("empty batch: %v %v", end, err)
	}
	if s.Stats().Applies != 0 {
		t.Fatal("empty batch should not count")
	}
}

func TestVirtualTimeAdvancesOnApply(t *testing.T) {
	s := mustOpen(t, newTestFile(t, 16), smallConfig())
	var b Batch
	b.Put([]byte("k"), []byte("v"))
	end, err := s.Apply(1000, &b)
	if err != nil {
		t.Fatal(err)
	}
	if end <= 1000 {
		t.Fatalf("durability point %d should be after arrival", end)
	}
}

// Model-based randomized test: the store must agree with a map through an
// arbitrary interleaving of batched puts/deletes, flushes, scans and
// reopens.
func TestRandomizedAgainstModel(t *testing.T) {
	f := newTestFile(t, 128)
	cfg := smallConfig()
	s := mustOpen(t, f, cfg)
	model := map[string]string{}
	rng := rand.New(rand.NewSource(7))
	key := func() string { return fmt.Sprintf("key%03d", rng.Intn(300)) }

	for step := 0; step < 4000; step++ {
		switch op := rng.Intn(100); {
		case op < 55: // batch write
			var b Batch
			n := 1 + rng.Intn(8)
			for i := 0; i < n; i++ {
				k := key()
				if rng.Intn(5) == 0 {
					b.Delete([]byte(k))
					delete(model, k)
				} else {
					v := fmt.Sprintf("v%d", rng.Int63())
					b.Put([]byte(k), []byte(v))
					model[k] = v
				}
			}
			if _, err := s.Apply(0, &b); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		case op < 85: // point lookup
			k := key()
			v, ok, _, err := s.Get(0, []byte(k))
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			want, wantOK := model[k]
			if ok != wantOK || (ok && string(v) != want) {
				t.Fatalf("step %d: Get(%q) = %q,%v want %q,%v", step, k, v, ok, want, wantOK)
			}
			// The same key among others, in any order, duplicates allowed.
			keys := [][]byte{[]byte(k)}
			for n := rng.Intn(12); n > 0; n-- {
				keys = append(keys, []byte(key()))
			}
			rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
			checkGetKeys(t, s, model, keys)
		case op < 95: // range scan
			lo := fmt.Sprintf("key%03d", rng.Intn(300))
			hi := fmt.Sprintf("key%03d", rng.Intn(300))
			if lo > hi {
				lo, hi = hi, lo
			}
			kvs, _, err := s.Scan(0, []byte(lo), []byte(hi), 0)
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			count := 0
			for k := range model {
				if k >= lo && k < hi {
					count++
				}
			}
			if len(kvs) != count {
				t.Fatalf("step %d: scan[%q,%q) = %d want %d", step, lo, hi, len(kvs), count)
			}
		case op < 98: // forced flush
			if _, err := s.Flush(0); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		default: // reopen (recovery)
			s = mustOpen(t, f, cfg)
		}
	}
}

// checkGetKeys asserts that GetKeys returns exactly the model's live
// pairs for keys, in the order of keys.
func checkGetKeys(t *testing.T, s *Store, model map[string]string, keys [][]byte) {
	t.Helper()
	kvs, _, err := s.GetKeys(0, keys)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, k := range keys {
		if v, ok := model[string(k)]; ok {
			want = append(want, string(k)+"="+v)
		}
	}
	var got []string
	for _, kv := range kvs {
		got = append(got, string(kv.Key)+"="+string(kv.Value))
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("GetKeys(%q) = %v want %v", keys, got, want)
	}
}

// A contiguous run of keys looked up exactly returns what a scan of the
// run returns, across tables of several levels, tombstones and the
// memtable.
func TestGetKeysMatchesScan(t *testing.T) {
	s := mustOpen(t, newTestFile(t, 64), smallConfig())
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1500; i++ {
		var b Batch
		k := []byte(fmt.Sprintf("key%03d", rng.Intn(400)))
		if rng.Intn(4) == 0 {
			b.Delete(k)
		} else {
			b.Put(k, []byte(fmt.Sprintf("%0128d", i)))
		}
		if _, err := s.Apply(0, &b); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Flushes == 0 || st.Compactions == 0 {
		t.Fatalf("want tables on several levels, got %+v", st)
	}
	for lo := 0; lo < 400; lo += 37 {
		hi := lo + 1 + rng.Intn(60)
		var keys [][]byte
		for k := lo; k < hi; k++ {
			keys = append(keys, []byte(fmt.Sprintf("key%03d", k)))
		}
		got, _, err := s.GetKeys(0, keys)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := s.Scan(0, keys[0], []byte(fmt.Sprintf("key%03d", hi)), 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("[%d,%d): GetKeys found %d, Scan %d", lo, hi, len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) {
				t.Fatalf("[%d,%d) pair %d: GetKeys %q=%q, Scan %q=%q", lo, hi, i,
					got[i].Key, got[i].Value, want[i].Key, want[i].Value)
			}
		}
	}
}

// deviceReads returns the number of read commands f's disk has served.
func deviceReads(f *simdisk.Partition) int64 { return f.Disk().Stats().ReadOps }

// A one-key lookup of a present key reads exactly one SST block, even
// when other tables' key ranges cover the key: their bloom filters turn
// it away.
func TestGetKeysOneKeyReadsOneBlock(t *testing.T) {
	f := newTestFile(t, 16)
	cfg := smallConfig()
	cfg.Fanout = 8 // keep three overlapping level-0 tables
	s := mustOpen(t, f, cfg)
	for table := 0; table < 3; table++ {
		var b Batch
		for i := table; i < 300; i += 3 {
			b.Put([]byte(fmt.Sprintf("key%03d", i)), []byte("v"))
		}
		if _, err := s.Apply(0, &b); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Flush(0); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.TableCounts()[0]; got != 3 {
		t.Fatalf("level 0 holds %d tables, want 3", got)
	}
	for _, k := range []string{"key000", "key151", "key299"} {
		before := deviceReads(f)
		v, ok, _, err := s.Get(0, []byte(k))
		if err != nil || !ok || string(v) != "v" {
			t.Fatalf("Get(%q) = %q,%v,%v", k, v, ok, err)
		}
		if n := deviceReads(f) - before; n != 1 {
			t.Fatalf("Get(%q) read %d blocks, want 1", k, n)
		}
	}
	// Each table holds its third of a run in one block, and a call reads
	// each block it needs once, whatever the number of keys in it.
	var keys [][]byte
	for i := 30; i < 60; i++ {
		keys = append(keys, []byte(fmt.Sprintf("key%03d", i)))
	}
	before := deviceReads(f)
	kvs, _, err := s.GetKeys(0, keys)
	if err != nil || len(kvs) != len(keys) {
		t.Fatalf("GetKeys found %d of %d: %v", len(kvs), len(keys), err)
	}
	if n := deviceReads(f) - before; n != 3 {
		t.Fatalf("GetKeys over three tables read %d blocks, want 3", n)
	}
}

// A scan reads no block of a table whose key range lies wholly outside
// the scanned range.
func TestScanSkipsTablesOutsideRange(t *testing.T) {
	f := newTestFile(t, 16)
	s := mustOpen(t, f, smallConfig())
	for _, prefix := range []string{"a", "c"} {
		for i := 0; i < 50; i++ {
			apply1(t, s, fmt.Sprintf("%s%02d", prefix, i), "x")
		}
		if _, err := s.Flush(0); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		lo, hi       string
		pairs, reads int
	}{
		{"c10", "c20", 10, 1}, // only the c table
		{"a10", "a20", 10, 1}, // only the a table
		{"b", "b9", 0, 0},     // the gap between them
		{"d", "", 0, 0},       // past both
		{"a45", "c05", 10, 2}, // both
	} {
		before := deviceReads(f)
		kvs, _, err := s.Scan(0, []byte(tc.lo), []byte(tc.hi), 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(kvs) != tc.pairs {
			t.Fatalf("Scan[%q,%q) = %d pairs, want %d", tc.lo, tc.hi, len(kvs), tc.pairs)
		}
		if n := deviceReads(f) - before; n != int64(tc.reads) {
			t.Fatalf("Scan[%q,%q) read %d blocks, want %d", tc.lo, tc.hi, n, tc.reads)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	s := mustOpen(t, newTestFile(t, 16), smallConfig())
	apply1(t, s, "a", "b")
	get(t, s, "a")
	s.Scan(0, nil, nil, 0)
	st := s.Stats()
	if st.Applies != 1 || st.EntriesWritten != 1 || st.Gets != 1 || st.Scans != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.WALBytes == 0 {
		t.Fatal("WAL bytes not counted")
	}
	if s.SpaceUsed() == 0 {
		t.Fatal("space used should include metadata regions")
	}
}

func TestBloomFilter(t *testing.T) {
	f := newBloom(1000, 10)
	for i := 0; i < 1000; i++ {
		f.add([]byte(fmt.Sprintf("key%d", i)))
	}
	for i := 0; i < 1000; i++ {
		if !f.mayContain([]byte(fmt.Sprintf("key%d", i))) {
			t.Fatalf("false negative on key%d", i)
		}
	}
	fp := 0
	for i := 0; i < 10000; i++ {
		if f.mayContain([]byte(fmt.Sprintf("other%d", i))) {
			fp++
		}
	}
	// 10 bits/key should be around 1% false positives; allow generous slack.
	if fp > 500 {
		t.Fatalf("false positive rate too high: %d/10000", fp)
	}
	// Nil filter admits everything.
	var nilF *bloomFilter
	if !nilF.mayContain([]byte("x")) {
		t.Fatal("nil filter must admit")
	}
}

func TestMemtableOrdering(t *testing.T) {
	m := newMemtable(1)
	keys := []string{"delta", "alpha", "charlie", "bravo", "echo"}
	for i, k := range keys {
		m.set(memEntry{key: []byte(k), value: []byte{byte(i)}, kind: kindPut})
	}
	var got []string
	for it := m.iter(nil); it.valid(); it.next() {
		got = append(got, string(it.entry().key))
	}
	want := []string{"alpha", "bravo", "charlie", "delta", "echo"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v", got)
		}
	}
	// Seek positioning.
	it := m.iter([]byte("c"))
	if !it.valid() || string(it.entry().key) != "charlie" {
		t.Fatal("seek failed")
	}
}

func TestTableGetAcrossBlocks(t *testing.T) {
	// Build a table with several blocks and verify point reads everywhere.
	var entries []memEntry
	val := bytes.Repeat([]byte{9}, 200)
	for i := 0; i < 200; i++ {
		entries = append(entries, memEntry{key: []byte(fmt.Sprintf("key%04d", i)), value: val, kind: kindPut})
	}
	tbl, seg := buildTable(entries, 1024, 10)
	if len(tbl.index) < 10 {
		t.Fatalf("expected many blocks, got %d", len(tbl.index))
	}
	f := newTestFile(t, 16)
	if _, err := f.WriteAt(0, seg, 8192); err != nil {
		t.Fatal(err)
	}
	c := &cursor{}
	got, err := openTable(c, f, 8192, int64(len(seg)))
	if err != nil {
		t.Fatal(err)
	}
	lookup1 := func(key string) (keyHit, error) {
		hits := make([]keyHit, 1)
		_, err := got.lookup(c, [][]byte{[]byte(key)}, hits)
		return hits[0], err
	}
	for i := 0; i < 200; i++ {
		h, err := lookup1(fmt.Sprintf("key%04d", i))
		if err != nil || h.kind != kindPut {
			t.Fatalf("key%04d: %v %v", i, h.kind, err)
		}
		if !bytes.Equal(h.value, val) {
			t.Fatalf("key%04d value mismatch", i)
		}
	}
	if h, _ := lookup1("zzz"); h.kind != 0 {
		t.Fatal("phantom key")
	}
	if h, _ := lookup1("aaa"); h.kind != 0 {
		t.Fatal("phantom key below range")
	}
}

func TestOpenRejectsTinyFile(t *testing.T) {
	d := simdisk.New("kv", 4, simdisk.DefaultCostModel())
	f := simdisk.NewPartition(d, 0, 4)
	if _, _, err := Open(0, f, smallConfig()); err == nil {
		t.Fatal("expected size rejection")
	}
}
