package clone

// flatten.go is the clone's background walker (an internal/walk walk):
// it copies every still-inherited block into the child, read through
// the parent chain and re-sealed under the child's current epoch, then
// severs the parent pointer, so the base image can be deleted, re-keyed
// or crypto-erased without touching the tenant.

import (
	"errors"

	"repro/internal/telemetry"
	"repro/internal/vtime"
	"repro/internal/walk"
)

// flattenKey is the header-OMAP key holding the persisted flatten cursor.
const flattenKey = "clone.flatten"

var (
	// ErrFlattenActive reports a StartFlatten while an unfinished flatten
	// exists — resume it instead.
	ErrFlattenActive = errors.New("clone: flatten already in progress; resume it")
	// ErrNoFlatten reports a ResumeFlatten with no persisted progress.
	ErrNoFlatten = errors.New("clone: no flatten in progress")
	// ErrHasSnaps reports a flatten of a clone that has snapshots of its
	// own. Copyup fills only the child's HEAD; the snapshots' frozen
	// views would keep resolving inherited blocks through the parent, so
	// severing the link would silently zero them (as RBD, refuse instead).
	ErrHasSnaps = errors.New("clone: image has snapshots that still need the parent; cannot flatten")
)

var flattenKind = walk.NewKind(walk.Kind{Name: "flatten", Key: flattenKey, Verb: "copied",
	Help: "blocks copied up from the parent chain into the child", ErrActive: ErrFlattenActive, ErrNone: ErrNoFlatten,
	Started: telemetry.EventFlattenStart, Finished: telemetry.EventFlattenFinish})

// FlattenProgress is the persisted flatten cursor.
type FlattenProgress struct {
	walk.Cursor
	// Blocks copied up so far (informational).
	Copied int64 `json:"copied"`
}

// walker embeds the engine as an unexported field; it promotes SetPace, Step and Run.
type walker = walk.Walk

// Flattener drives one flatten on one clone: SetPace, then Step or Run
// (copy up one object per step, then sever the parent).
type Flattener struct {
	walker
	img  *Image
	prog FlattenProgress
}

func newFlattener(img *Image) *Flattener {
	f := &Flattener{img: img}
	f.walker = walk.New(flattenKind, img.enc.Image(), &f.prog, &f.prog.Copied, f.copyupObject, f.sever)
	return f
}

// Progress returns the current cursor.
func (f *Flattener) Progress() FlattenProgress { return f.prog }

// StartFlatten begins flattening a clone. The progress record is
// persisted before any data moves; the walk is idempotent because
// copyup keys off child presence.
func StartFlatten(at vtime.Time, img *Image) (*Flattener, vtime.Time, error) {
	if img.parentLayer() == nil {
		return nil, at, ErrNotClone
	}
	if len(img.enc.Image().Snaps()) > 0 {
		return nil, at, ErrHasSnaps
	}
	return walk.Start(at, newFlattener(img), img.enc.ObjectCount(), nil)
}

// ResumeFlatten reattaches to an interrupted flatten on a freshly opened
// image. A crash after the sever leaves nothing to copy: the cursor
// jumps to the end and Step just completes the bookkeeping.
func ResumeFlatten(at vtime.Time, img *Image) (*Flattener, vtime.Time, error) {
	f := newFlattener(img)
	f2, at, err := walk.Resume(at, f, img.enc.ObjectCount(), func() { f.prog = FlattenProgress{} })
	if err == nil && img.parentLayer() == nil {
		f.prog.NextObj = f.prog.Objects
	}
	return f2, at, err
}

func (f *Flattener) copyupObject(at vtime.Time, obj int64, pace *vtime.Pacer) (int64, vtime.Time, error) {
	enc := f.img.enc
	bs := enc.Options().BlockSize
	n, at, err := enc.CopyupObject(at, obj, parentFetch(f.img.parentLayer(), obj, enc.Image().ObjectSize(), bs))
	if err == nil {
		pace.Charge(2 * int64(n) * bs) // parent read + child write
	}
	return int64(n), at, err
}

// sever runs before the record is cleared, so a crash in between
// re-runs it (RemoveParent is idempotent) instead of stranding a
// fully-copied clone still chained to its parent.
func (f *Flattener) sever(at vtime.Time) (vtime.Time, error) {
	at, err := f.img.enc.Image().RemoveParent(at)
	if err == nil {
		f.img.detachParent()
	}
	return at, err
}

// parentFetch builds the CopyupObject fetch callback for one object: it
// reads the absent blocks through the parent chain over their maximal
// contiguous runs; presence of each block in ANY ancestor decides keep
// (holes everywhere stay holes).
func parentFetch(parent *layer, objIdx, objectSize, bs int64) func(at vtime.Time, blocks []int64, plain []byte) ([]bool, vtime.Time, error) {
	return func(at vtime.Time, blocks []int64, plain []byte) ([]bool, vtime.Time, error) {
		keep := make([]bool, len(blocks))
		end := at
		err := forBlockRuns(blocks, func(lo, hi int) error {
			off := objIdx*objectSize + blocks[lo]*bs
			e, err := parent.readInto(at, plain[int64(lo)*bs:int64(hi)*bs], off, keep[lo:hi])
			if err != nil {
				return err
			}
			end = vtime.Max(end, e)
			return nil
		})
		if err != nil {
			return nil, at, err
		}
		return keep, end, nil
	}
}

// FlattenActive reports whether an image has an unfinished flatten, and its cursor.
func FlattenActive(at vtime.Time, img *Image) (bool, FlattenProgress, vtime.Time, error) {
	return walk.Active[FlattenProgress](at, flattenKind, img.enc.Image())
}
