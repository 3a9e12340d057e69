// Package scrub is the background integrity walker (an internal/walk
// walk): a paced sweep over every object of an encrypted image that
// opens each present block under its recorded key epoch and, optionally,
// repairs blocks whose ciphertext no longer authenticates from an
// intact replica copy.
//
// What a scrub pass proves depends on the scheme — the paper's
// integrity argument as an operational property. SchemeGCM's
// authenticated per-block metadata turns bit rot anywhere in the
// ciphertext into a detected (and, with replicas, repairable) finding;
// the length-preserving schemes decrypt anything to something, so for
// them the walk verifies structure only (every block's epoch tag
// resolves to a live key). See core.VerifyObject.
package scrub

import (
	"errors"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/vtime"
	"repro/internal/walk"
)

// progressKey is the header-OMAP key holding the persisted scrub cursor.
const progressKey = "scrub.walk"

var (
	// ErrScrubActive reports a Start while an unfinished scrub exists —
	// resume it instead.
	ErrScrubActive = errors.New("scrub: scrub already in progress; resume it")
	// ErrNoScrub reports a Resume with no persisted progress record.
	ErrNoScrub = errors.New("scrub: no scrub in progress")
)

var (
	kind = walk.NewKind(walk.Kind{Name: "scrub", Key: progressKey, Verb: "checked",
		Help: "present blocks opened and verified by the scrub walker", ErrActive: ErrScrubActive, ErrNone: ErrNoScrub,
		Started: telemetry.EventScrubStart, Finished: telemetry.EventScrubFinish})
	mScrubFound = telemetry.NewCounterVec("scrub_blocks_bad_total",
		"blocks that failed scrub verification (integrity or key-epoch failures)", "image")
	mScrubRepaired = telemetry.NewCounterVec("scrub_blocks_repaired_total",
		"bad blocks recovered from an intact replica and re-sealed", "image")
)

// Progress is the persisted scrub cursor.
type Progress struct {
	walk.Cursor
	// Blocks verified, failed and recovered so far (informational).
	Checked  int64 `json:"checked"`
	Found    int64 `json:"found"`
	Repaired int64 `json:"repaired"`
}

// walker embeds the engine as an unexported field; it promotes SetPace, Step and Run.
type walker = walk.Walk

// Scrubber drives one verification sweep over one image: SetPace and
// SetRepair, then Step or Run (verify one object per step).
type Scrubber struct {
	walker
	img             *core.EncryptedImage
	prog            Progress
	repair          bool
	found, repaired *telemetry.Counter
}

func newScrubber(img *core.EncryptedImage) *Scrubber {
	name := img.Image().Name()
	s := &Scrubber{img: img, repair: true,
		found: mScrubFound.With(name), repaired: mScrubRepaired.With(name)}
	s.walker = walk.New(kind, img.Image(), &s.prog, &s.prog.Checked, s.verifyObject, nil)
	return s
}

// SetRepair enables (the default) or disables replica repair of blocks
// that fail verification. A check-only scrub still counts findings.
func (s *Scrubber) SetRepair(on bool) { s.repair = on }

// Progress returns the current cursor.
func (s *Scrubber) Progress() Progress { return s.prog }

// Start begins a scrub sweep.
func Start(at vtime.Time, img *core.EncryptedImage) (*Scrubber, vtime.Time, error) {
	return walk.Start(at, newScrubber(img), img.ObjectCount(), nil)
}

// Resume reattaches to an interrupted scrub on a freshly loaded image;
// an undecodable or out-of-domain record restarts it, counters and all.
func Resume(at vtime.Time, img *core.EncryptedImage) (*Scrubber, vtime.Time, error) {
	s := newScrubber(img)
	return walk.Resume(at, s, img.ObjectCount(), func() { s.prog = Progress{} })
}

// Abort withdraws an image's scrub record; repairs already committed
// are ordinary (good) writes.
func Abort(at vtime.Time, img *core.EncryptedImage) (vtime.Time, error) {
	return img.Image().ClearCursor(at, progressKey)
}

// verifyObject opens every present block of the object and repairs the
// bad ones when enabled. Findings are counted and never abort the walk;
// errors are transport trouble.
func (s *Scrubber) verifyObject(at vtime.Time, obj int64, pace *vtime.Pacer) (int64, vtime.Time, error) {
	bs := s.img.Options().BlockSize
	checked, bad, at, err := s.img.VerifyObject(at, obj)
	if err != nil {
		return 0, at, err
	}
	pace.Charge(int64(checked) * bs)
	if len(bad) > 0 {
		s.prog.Found += int64(len(bad))
		s.found.Add(int64(len(bad)))
		if s.repair {
			blocks := make([]int64, len(bad))
			for i, b := range bad {
				blocks[i] = b.Block
			}
			var n int
			if n, at, err = s.img.RepairObject(at, obj, blocks); err != nil {
				return 0, at, err
			}
			pace.Charge(2 * int64(n) * bs) // replica read + re-seal write
			s.prog.Repaired += int64(n)
			s.repaired.Add(int64(n))
			telemetry.Log.Append(at, telemetry.EventRepairDone, s.img.Image().Name(), "blocks re-sealed from replica", int64(n))
		}
	}
	return int64(checked), at, nil
}

// Active reports whether an image has an unfinished scrub, and its cursor.
func Active(at vtime.Time, img *core.EncryptedImage) (bool, Progress, vtime.Time, error) {
	return walk.Active[Progress](at, kind, img.Image())
}
