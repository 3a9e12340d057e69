// Package keymgr is the key-lifecycle subsystem: online re-keying of an
// encrypted virtual disk and crypto-erase, the two capabilities the
// paper's per-block metadata makes cheap that length-preserving disk
// encryption cannot have (§1, §4). A Rekeyer mints the next key epoch in
// the image's LUKS-style container, then walks the image object by
// object — under live IO — re-sealing every block still carrying the old
// epoch tag (an internal/walk walk). New writes always seal under the
// newest epoch, so the walker and the workload converge. When the walk
// completes, the retired epoch's wrapped key is destroyed: from then on
// nothing — not even a passphrase holder — can decrypt data sealed
// under it (including pre-rekey snapshot clones): the LUKS2 "online
// re-encryption journal" workflow as a metadata tag plus a walker.
//
// The control plane (this package: key ops, progress records) is
// deliberately separate from the offloadable datapath (internal/core's
// seal/open pipeline), following the FlexBSO split of PAPERS.md.
package keymgr

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/luks"
	"repro/internal/telemetry"
	"repro/internal/vtime"
	"repro/internal/walk"
)

// progressKey is the header-OMAP key holding the persisted rekey cursor.
const progressKey = "keymgr.rekey"

var (
	// ErrRekeyActive reports a Start while an unfinished rekey exists —
	// resume it instead (a second transition would strand epochs).
	ErrRekeyActive = errors.New("keymgr: rekey already in progress; resume it")
	// ErrNoRekey reports a Resume with no persisted progress record.
	ErrNoRekey = errors.New("keymgr: no rekey in progress")
)

var kind = walk.NewKind(walk.Kind{Name: "rekey", Key: progressKey, Verb: "resealed",
	Help: "blocks re-sealed under the target epoch", ErrActive: ErrRekeyActive, ErrNone: ErrNoRekey,
	Started: telemetry.EventRekeyStart, Finished: telemetry.EventRekeyFinish})

// Progress is the persisted rekey cursor.
type Progress struct {
	From uint32 `json:"from"` // retiring epoch
	To   uint32 `json:"to"`   // target epoch (container current)
	walk.Cursor
	// Blocks re-sealed so far (informational).
	Rekeyed int64 `json:"rekeyed"`
}

// walker embeds the engine as an unexported field; it promotes SetPace, Step and Run.
type walker = walk.Walk

// Rekeyer drives one epoch transition on one image: SetPace, then Step
// or Run (re-seal one object per step, then destroy the retired keys).
type Rekeyer struct {
	walker
	img  *core.EncryptedImage
	prog Progress
}

func newRekeyer(img *core.EncryptedImage, prog Progress) *Rekeyer {
	r := &Rekeyer{img: img, prog: prog}
	r.walker = walk.New(kind, img.Image(), &r.prog, &r.prog.Rekeyed, r.rekeyObject, r.dropRetired)
	return r
}

// Progress returns the current cursor.
func (r *Rekeyer) Progress() Progress { return r.prog }

// Start begins the next epoch transition: the progress record is
// persisted FIRST, then epoch N+1 is minted and every write seals under
// it. A crash between the two leaves a record targeting an epoch the
// container lacks; Resume finishes Start's job.
func Start(at vtime.Time, img *core.EncryptedImage) (*Rekeyer, vtime.Time, error) {
	from := img.CurrentEpoch()
	r := newRekeyer(img, Progress{From: from, To: from + 1})
	return walk.Start(at, r, img.ObjectCount(), r.mint)
}

func (r *Rekeyer) mint(at vtime.Time) (vtime.Time, error) {
	to, at, err := r.img.BeginEpoch(at)
	if err == nil && to != r.prog.To {
		err = fmt.Errorf("keymgr: container minted epoch %d, progress record expected %d", to, r.prog.To)
	}
	return at, err
}

// Resume reattaches to an interrupted rekey on a freshly loaded image,
// minting the target epoch if the crash hit inside Start. A lost record
// restarts as a full walk toward the current epoch, whose completion
// destroys every other epoch, the lost record's retiring one included.
func Resume(at vtime.Time, img *core.EncryptedImage) (*Rekeyer, vtime.Time, error) {
	cur := img.CurrentEpoch()
	r := newRekeyer(img, Progress{})
	_, at, err := walk.Resume(at, r, img.ObjectCount(), func() { r.prog = Progress{From: cur, To: cur} })
	if err == nil && cur != r.prog.To {
		if cur == r.prog.From { // crashed inside Start: the intent is durable, the epoch is not
			at, err = r.mint(at)
		} else {
			err = fmt.Errorf("keymgr: progress targets epoch %d but container is at %d (Abort to discard the record and Start a fresh transition)", r.prog.To, cur)
		}
	}
	if err != nil {
		return nil, at, err
	}
	return r, at, nil
}

// Abort withdraws an image's rekey record without touching any keys,
// for a record no Resume can reattach to; the next completed
// transition re-seals the blocks and destroys the retired epochs.
func Abort(at vtime.Time, img *core.EncryptedImage) (vtime.Time, error) {
	return img.Image().ClearCursor(at, progressKey)
}

func (r *Rekeyer) rekeyObject(at vtime.Time, obj int64, pace *vtime.Pacer) (int64, vtime.Time, error) {
	n, at, err := r.img.RekeyObject(at, obj)
	if err == nil {
		pace.Charge(2 * int64(n) * r.img.Options().BlockSize) // read + re-write
	}
	return int64(n), at, err
}

// dropRetired destroys every epoch but To, orphans of aborted
// transitions included; ErrEpochUnknown means a re-run already did.
func (r *Rekeyer) dropRetired(at vtime.Time) (end vtime.Time, err error) {
	for _, ep := range r.img.Epochs() {
		if ep == r.prog.To {
			continue
		}
		if at, err = r.img.DropEpoch(at, ep); err != nil && !errors.Is(err, luks.ErrEpochUnknown) {
			return at, err
		}
	}
	return at, nil
}

// Active reports whether an image has an unfinished rekey, and its cursor.
func Active(at vtime.Time, img *core.EncryptedImage) (bool, Progress, vtime.Time, error) {
	return walk.Active[Progress](at, kind, img.Image())
}
