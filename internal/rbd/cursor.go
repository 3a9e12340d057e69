package rbd

// cursor.go is the persisted walker-cursor protocol of internal/walk
// (keymgr's rekey, clone's flatten, scrub's sweep): one JSON record per
// walker under a reserved key in the image header's OMAP, written after
// every unit of work so a crashed client resumes instead of restarting.
// Keeping the load/save/clear plumbing here means every walker speaks
// exactly the same on-disk protocol.

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/rados"
	"repro/internal/vtime"
)

// ErrCorruptCursor reports a walker-cursor record whose stored bytes do
// not decode — truncated or scribbled OMAP state. The walkers treat it
// as "a walk was in flight, its position is lost": they restart the
// walk from the beginning (which is safe, every walk is idempotent)
// rather than fail the resume or, worse, trust a half-read cursor.
var ErrCorruptCursor = errors.New("rbd: corrupt walker cursor")

// LoadCursor reads the walker cursor stored under key in the image
// header's OMAP into v, reporting found=false when no record exists.
// A record that exists but does not decode returns an error wrapping
// ErrCorruptCursor. Error returns carry the read's end time too.
func (img *Image) LoadCursor(at vtime.Time, key string, v any) (bool, vtime.Time, error) {
	res, end, err := img.OperateHeader(at, []rados.Op{{
		Kind: rados.OpOmapGetRange,
		Key:  []byte(key),
		Key2: []byte(key + "\x00"),
	}})
	if err != nil {
		return false, end, err
	}
	if res[0].Status != rados.StatusOK || len(res[0].Pairs) == 0 {
		return false, end, nil
	}
	if err := json.Unmarshal(res[0].Pairs[0].Value, v); err != nil {
		return false, end, fmt.Errorf("%w %q: %v", ErrCorruptCursor, key, err)
	}
	return true, end, nil
}

// SaveCursor persists v as the walker cursor under key.
func (img *Image) SaveCursor(at vtime.Time, key string, v any) (vtime.Time, error) {
	blob, err := json.Marshal(v)
	if err != nil {
		return at, err
	}
	return img.setCursor(at, rados.Op{Kind: rados.OpOmapSet, Pairs: []rados.Pair{{Key: []byte(key), Value: blob}}})
}

// ClearCursor removes the walker cursor under key (idempotent).
func (img *Image) ClearCursor(at vtime.Time, key string) (vtime.Time, error) {
	return img.setCursor(at, rados.Op{Kind: rados.OpOmapDel, Pairs: []rados.Pair{{Key: []byte(key)}}})
}

// setCursor applies one OMAP mutation to the image header.
func (img *Image) setCursor(at vtime.Time, op rados.Op) (vtime.Time, error) {
	res, end, err := img.OperateHeader(at, []rados.Op{op})
	if err != nil {
		return end, err
	}
	return end, res[0].Status.Err()
}
