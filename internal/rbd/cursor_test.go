package rbd

import (
	"errors"
	"testing"

	"repro/internal/rados"
)

type cursorRec struct {
	NextObj int64 `json:"next_obj"`
	Objects int64 `json:"objects"`
}

// scribbleCursor bypasses SaveCursor and plants raw bytes under the
// cursor key, the way a torn OMAP write or a buggy writer would.
func scribbleCursor(t *testing.T, img *Image, key string, raw []byte) {
	t.Helper()
	res, _, err := img.OperateHeader(0, []rados.Op{{
		Kind:  rados.OpOmapSet,
		Pairs: []rados.Pair{{Key: []byte(key), Value: raw}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Status != rados.StatusOK {
		t.Fatalf("raw omap set: %v", res[0].Status)
	}
}

func TestCursorRoundTrip(t *testing.T) {
	img := testImage(t, 4<<20)
	const key = "walker.test"

	if found, _, err := img.LoadCursor(0, key, &cursorRec{}); err != nil || found {
		t.Fatalf("cursor before save: found=%v err=%v", found, err)
	}
	want := cursorRec{NextObj: 3, Objects: 7}
	if _, err := img.SaveCursor(0, key, want); err != nil {
		t.Fatal(err)
	}
	var got cursorRec
	if found, _, err := img.LoadCursor(0, key, &got); err != nil || !found || got != want {
		t.Fatalf("load: found=%v err=%v got=%+v", found, err, got)
	}
	if _, err := img.ClearCursor(0, key); err != nil {
		t.Fatal(err)
	}
	if found, _, err := img.LoadCursor(0, key, &got); err != nil || found {
		t.Fatalf("cursor after clear: found=%v err=%v", found, err)
	}
	// Clear is idempotent.
	if _, err := img.ClearCursor(0, key); err != nil {
		t.Fatal(err)
	}
}

// TestLoadCursorCorrupt plants undecodable bytes under the cursor key
// and checks the contract: LoadCursor returns an error wrapping
// ErrCorruptCursor — never a panic, never a silent found=false that
// would make a walker believe no walk was in flight.
func TestLoadCursorCorrupt(t *testing.T) {
	cases := []struct {
		name string
		raw  []byte
	}{
		{"garbage", []byte("\x00\xffnot json at all\x17")},
		{"truncated", []byte(`{"next_obj": 12, "obje`)},
		{"empty", nil},
		{"wrong-shape", []byte(`[1, 2, 3]`)},
	}
	img := testImage(t, 4<<20)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const key = "walker.corrupt"
			scribbleCursor(t, img, key, tc.raw)
			var rec cursorRec
			found, end, err := img.LoadCursor(0, key, &rec)
			if !errors.Is(err, ErrCorruptCursor) {
				t.Fatalf("LoadCursor over %q: err=%v, want ErrCorruptCursor", tc.raw, err)
			}
			if found {
				t.Fatal("corrupt record reported found=true")
			}
			// The header read that found the corruption took virtual
			// time; callers persist their restart record after it.
			if end <= 0 {
				t.Fatalf("LoadCursor issued at 0 returned end=%v, want the read's completion time", end)
			}
			// A fresh save over the wreckage restores the protocol.
			want := cursorRec{NextObj: 1, Objects: 2}
			if _, err := img.SaveCursor(0, key, want); err != nil {
				t.Fatal(err)
			}
			var got cursorRec
			if found, _, err := img.LoadCursor(0, key, &got); err != nil || !found || got != want {
				t.Fatalf("reload after rewrite: found=%v err=%v got=%+v", found, err, got)
			}
			if _, err := img.ClearCursor(0, key); err != nil {
				t.Fatal(err)
			}
		})
	}
}
