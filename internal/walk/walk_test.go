package walk

import (
	"errors"
	"testing"

	"repro/internal/rados"
	"repro/internal/rbd"
	"repro/internal/simdisk"
	"repro/internal/telemetry"
	"repro/internal/vtime"
)

var (
	errTestActive = errors.New("walktest: active")
	errTestNone   = errors.New("walktest: none")
	testKind      = NewKind(Kind{
		Name: "walktest", Key: "walk.test", Verb: "visited", Help: "blocks visited by the test walker",
		ErrActive: errTestActive, ErrNone: errTestNone,
		Started: telemetry.EventScrubStart, Finished: telemetry.EventScrubFinish,
	})
)

const objects = 4

func testImage(t *testing.T) *rbd.Image {
	t.Helper()
	cfg := rados.DefaultClusterConfig()
	cfg.OSDs = 3
	cfg.DisksPerOSD = 2
	cfg.DiskSectors = (768 << 20) / simdisk.SectorSize
	cfg.PGNum = 16
	cfg.Blob.ObjectCapacity = 1<<20 + 64<<10
	cfg.Blob.KVBytes = 64 << 20
	cfg.Blob.KV.MemtableBytes = 256 << 10
	cfg.Blob.KV.WALBytes = 4 << 20
	c, err := rados.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	cl := c.NewClient("walk-test")
	if _, err := rbd.CreateWithObjectSize(0, cl, "rbd", "img", objects<<20, 1<<20); err != nil {
		t.Fatal(err)
	}
	img, _, err := rbd.Open(0, cl, "rbd", "img")
	if err != nil {
		t.Fatal(err)
	}
	return img
}

type testRecord struct {
	Tag string `json:"tag"`
	Cursor
	Visited int64 `json:"visited"`
}

// testWalker visits object i as i+1 blocks and records when each visit
// was admitted and how often the finish hook ran.
type testWalker struct {
	Walk
	rec      testRecord
	admitted []vtime.Time
	finished int
}

func newTestWalker(img *rbd.Image) *testWalker {
	tw := &testWalker{}
	tw.Walk = New(testKind, img, &tw.rec, &tw.rec.Visited,
		func(at vtime.Time, obj int64, pace *vtime.Pacer) (int64, vtime.Time, error) {
			tw.admitted = append(tw.admitted, at)
			pace.Charge(obj + 1)
			return obj + 1, at.Add(1000), nil
		},
		func(at vtime.Time) (vtime.Time, error) {
			tw.finished++
			return at, nil
		})
	return tw
}

func TestWalkLifecycle(t *testing.T) {
	img := testImage(t)
	tw := newTestWalker(img)
	tw.rec.Tag = "first"
	_, at, err := Start(0, tw, objects, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, at, err = tw.Step(at); err != nil {
			t.Fatal(err)
		}
	}
	if w, _, err := Start(at, newTestWalker(img), objects, nil); w != nil || !errors.Is(err, errTestActive) {
		t.Fatalf("second Start: %v, want ErrActive", err)
	}

	// The record is one flat JSON object: the cursor's fields sit beside
	// the walker's own.
	var raw map[string]any
	if found, _, err := img.LoadCursor(at, testKind.Key, &raw); err != nil || !found {
		t.Fatalf("raw load: found=%v err=%v", found, err)
	}
	for k, want := range map[string]float64{"next_obj": 2, "objects": objects, "visited": 3} {
		if raw[k] != want {
			t.Fatalf("record %v: %s=%v, want %v", raw, k, raw[k], want)
		}
	}

	// A fresh walker resumes where the first stopped, walker fields and all.
	tw2 := newTestWalker(img)
	if _, at, err = Resume(at, tw2, objects, func() { t.Fatal("valid record restarted") }); err != nil {
		t.Fatal(err)
	}
	if tw2.rec.Tag != "first" || tw2.rec.NextObj != 2 || tw2.rec.Visited != 3 {
		t.Fatalf("resumed record %+v", tw2.rec)
	}
	if at, err = tw2.Run(at); err != nil {
		t.Fatal(err)
	}
	if tw2.finished != 1 || tw2.rec.Visited != 1+2+3+4 || !tw2.rec.Done() {
		t.Fatalf("after Run: finished=%d record %+v", tw2.finished, tw2.rec)
	}
	if found, _, _, err := Active[testRecord](at, testKind, img); err != nil || found {
		t.Fatalf("record after completion: found=%v err=%v", found, err)
	}
	if w, _, err := Resume(at, newTestWalker(img), objects, func() {}); w != nil || !errors.Is(err, errTestNone) {
		t.Fatalf("Resume after completion: %v, want ErrNone", err)
	}
}

func TestWalkRestartsBadRecord(t *testing.T) {
	for _, tc := range []struct {
		name string
		save func(img *rbd.Image) error
	}{
		{"undecodable", func(img *rbd.Image) error {
			res, _, err := img.OperateHeader(0, []rados.Op{{
				Kind:  rados.OpOmapSet,
				Pairs: []rados.Pair{{Key: []byte(testKind.Key), Value: []byte("\xde\xadnot a cursor")}},
			}})
			if err == nil {
				err = res[0].Status.Err()
			}
			return err
		}},
		{"out-of-domain", func(img *rbd.Image) error {
			_, err := img.SaveCursor(0, testKind.Key, testRecord{Cursor: Cursor{NextObj: 9, Objects: 12}, Visited: 7})
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			img := testImage(t)
			if err := tc.save(img); err != nil {
				t.Fatal(err)
			}
			tw := newTestWalker(img)
			resets := 0
			got, at, err := Resume(0, tw, objects, func() { resets++; tw.rec = testRecord{Tag: "fresh"} })
			if err != nil || got != tw {
				t.Fatalf("Resume: walker %p err %v, want %p", got, err, tw)
			}
			if resets != 1 || tw.rec != (testRecord{Tag: "fresh", Cursor: Cursor{Objects: objects}}) {
				t.Fatalf("restart: resets=%d record %+v", resets, tw.rec)
			}
			if at <= 0 {
				t.Fatalf("restart returned at=%v, want the load and save's time", at)
			}
			// The replacement was persisted: the next Resume is a normal one.
			tw2 := newTestWalker(img)
			if _, _, err := Resume(at, tw2, objects, func() { t.Fatal("persisted restart record restarted again") }); err != nil {
				t.Fatal(err)
			}
			if tw2.rec.Tag != "fresh" {
				t.Fatalf("re-Resume record %+v", tw2.rec)
			}
		})
	}
}

func TestWalkFailedBeginWithdrawsRecord(t *testing.T) {
	img := testImage(t)
	boom := errors.New("begin refused")
	if _, _, err := Start(0, newTestWalker(img), objects, func(at vtime.Time) (vtime.Time, error) {
		if found, _, _, err := Active[testRecord](at, testKind, img); err != nil || !found {
			t.Fatalf("record not durable before begin: found=%v err=%v", found, err)
		}
		return at, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("Start: %v, want the begin error", err)
	}
	if found, _, _, err := Active[testRecord](0, testKind, img); err != nil || found {
		t.Fatalf("record after failed begin: found=%v err=%v", found, err)
	}
}

// TestWalkPacedAdmission pins that every visit is admitted against the
// pacer: at 10 ops/s the k-th visit cannot start before k*100ms.
func TestWalkPacedAdmission(t *testing.T) {
	img := testImage(t)
	tw := newTestWalker(img)
	_, at, err := Start(0, tw, objects, nil)
	if err != nil {
		t.Fatal(err)
	}
	pace := vtime.NewPacer(10, 0)
	tw.SetPace(pace)
	if _, err := tw.Run(at); err != nil {
		t.Fatal(err)
	}
	if len(tw.admitted) != objects {
		t.Fatalf("%d visits, want %d", len(tw.admitted), objects)
	}
	for k, a := range tw.admitted {
		if floor := vtime.Time(k) * 100e6; a < floor {
			t.Fatalf("visit %d admitted at %v, want >= %v", k, a, floor)
		}
	}
	if pace.Stall() <= 0 {
		t.Fatal("a 10 op/s pacer never stalled a 4-object walk")
	}
}
