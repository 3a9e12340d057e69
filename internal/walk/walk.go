// Package walk is the one resumable, paced object walker behind the
// background jobs the paper's per-block metadata makes possible (§1,
// §3.1): keymgr's online rekey, clone's flatten and scrub's sweep. It
// owns the cursor persisted in the image header's OMAP after every
// object, crash-resume, pacing, progress series and journal events; a
// walker keeps only its record, its per-object visit and its hooks.
package walk

import (
	"cmp"
	"errors"

	"repro/internal/rbd"
	"repro/internal/telemetry"
	"repro/internal/vtime"
)

// Cursor is the walk position. Progress records embed it, so its JSON
// fields sit beside the walker's own.
type Cursor struct {
	NextObj int64 `json:"next_obj"` // first object not yet walked
	Objects int64 `json:"objects"`  // walk domain, fixed at Start
}

// Done reports whether the walk has covered every object.
func (c Cursor) Done() bool { return c.NextObj >= c.Objects }

func (c *Cursor) cursor() *Cursor { return c }

// Record is a pointer to a progress record, a struct embedding Cursor.
type Record interface{ cursor() *Cursor }

// Kind is one type of walk, built once per walker package by NewKind.
type Kind struct {
	Name, Key          string // series prefix; header-OMAP key of the record
	Verb, Help         string // the <Name>_blocks_<Verb>_total counter
	ErrActive, ErrNone error  // Start over a walk in flight; Resume with none
	Started, Finished  telemetry.EventKind

	done, total, debt, stall *telemetry.GaugeVec
	blocks                   *telemetry.CounterVec
}

// NewKind registers k's image-labeled series: <Name>_objects_done,
// <Name>_objects_total, <Name>_pacer_debt_ns, <Name>_pacer_stall_ns and
// <Name>_blocks_<Verb>_total.
func NewKind(k Kind) *Kind {
	n := k.Name
	k.done = telemetry.NewGaugeVec(n+"_objects_done", "objects the "+n+" walker has completed", "image")
	k.total = telemetry.NewGaugeVec(n+"_objects_total", "objects in the "+n+" walk domain", "image")
	k.blocks = telemetry.NewCounterVec(n+"_blocks_"+k.Verb+"_total", k.Help, "image")
	k.debt = telemetry.NewGaugeVec(n+"_pacer_debt_ns", n+" pacer debt in virtual nanoseconds (0 = unpaced or inside budget)", "image")
	k.stall = telemetry.NewGaugeVec(n+"_pacer_stall_ns", "cumulative virtual time the "+n+" walker spent stalled in pacer admission", "image")
	return &k
}

// Active reports whether img has a walk of kind k in flight, and its
// record.
func Active[P any](at vtime.Time, k *Kind, img *rbd.Image) (bool, P, vtime.Time, error) {
	var p P
	found, end, err := img.LoadCursor(at, k.Key, &p)
	return found, p, end, err
}

// Walk is one walk over one image; walkers embed it for SetPace, Step, Run.
type Walk struct {
	kind   *Kind
	img    *rbd.Image
	rec    Record
	cur    *Cursor
	count  *int64
	visit  func(at vtime.Time, obj int64, pace *vtime.Pacer) (int64, vtime.Time, error)
	finish func(at vtime.Time) (vtime.Time, error)
	pace   *vtime.Pacer

	done, total, debt, stall *telemetry.Gauge
	blocks                   *telemetry.Counter
}

// New binds a walk over img to rec. visit processes one object at its
// admitted time, charges the bytes it moved to pace (known only after
// it ran) and returns the blocks it counted, which accumulate in
// *count. finish (may be nil) runs after the last object and before the
// record is cleared, so a crash re-runs it: it must be idempotent.
func New(k *Kind, img *rbd.Image, rec Record, count *int64,
	visit func(at vtime.Time, obj int64, pace *vtime.Pacer) (int64, vtime.Time, error),
	finish func(at vtime.Time) (vtime.Time, error)) Walk {
	name := img.Name()
	return Walk{kind: k, img: img, rec: rec, cur: rec.cursor(), count: count, visit: visit, finish: finish,
		done: k.done.With(name), total: k.total.With(name), debt: k.debt.With(name),
		stall: k.stall.With(name), blocks: k.blocks.With(name)}
}

func (w *Walk) walk() *Walk { return w }

// Walker is a walker type: a pointer to a struct embedding Walk.
type Walker interface{ walk() *Walk }

// Start begins walker's walk over objects objects, returning walker, or
// nil on error. It persists the fresh record first, as the durable
// intent, then runs begin (may be nil); if begin fails the record is
// withdrawn.
func Start[W Walker](at vtime.Time, walker W, objects int64, begin func(vtime.Time) (vtime.Time, error)) (W, vtime.Time, error) {
	var none W
	w := walker.walk()
	// An absent record leaves rec untouched; the save is issued at at, not after the probe.
	if found, end, err := w.img.LoadCursor(at, w.kind.Key, w.rec); err != nil || found {
		return none, end, cmp.Or(err, w.kind.ErrActive)
	}
	w.cur.Objects = objects
	at, err := w.save(at)
	if err != nil {
		return none, at, err
	}
	w.publish(at)
	if begin != nil {
		if at, err = begin(at); err != nil {
			if end, cerr := w.img.ClearCursor(at, w.kind.Key); cerr == nil {
				at = end
			}
			return none, at, err
		}
	}
	telemetry.Log.Append(at, w.kind.Started, w.img.Name(), "objects", objects)
	return walker, at, nil
}

// Resume reattaches walker to the recorded walk, returning walker, or
// nil on error. A record that does not decode, or whose cursor is
// incoherent or spans other than objects, proves a walk was in flight:
// reset refreshes the walker's fields, the walk restarts at object zero
// (visits are idempotent), and the new record is persisted at once.
func Resume[W Walker](at vtime.Time, walker W, objects int64, reset func()) (W, vtime.Time, error) {
	var none W
	w := walker.walk()
	found, at, err := w.img.LoadCursor(at, w.kind.Key, w.rec)
	c := w.cur
	switch {
	case errors.Is(err, rbd.ErrCorruptCursor),
		err == nil && found && (c.NextObj < 0 || c.NextObj > c.Objects || c.Objects != objects):
		reset()
		*c = Cursor{Objects: objects}
		if at, err = w.save(at); err != nil {
			return none, at, err
		}
	case err != nil || !found:
		return none, at, cmp.Or(err, w.kind.ErrNone)
	}
	w.publish(at)
	return walker, at, nil
}

// SetPace installs an admission budget (IOPS + bytes/s caps, like
// Ceph's osd_recovery limits); nil removes it. Walks handed the same
// Pacer split one combined budget.
func (w *Walk) SetPace(p *vtime.Pacer) { w.pace = p }

// Step admits, visits, persists and publishes the next object or, once
// all are walked, finishes, removes the record and reports done.
func (w *Walk) Step(at vtime.Time) (done bool, end vtime.Time, err error) {
	if w.cur.Done() {
		if w.finish != nil {
			at, err = w.finish(at)
		}
		if err == nil {
			at, err = w.img.ClearCursor(at, w.kind.Key)
		}
		if err != nil {
			return false, at, err
		}
		w.publish(at)
		telemetry.Log.Append(at, w.kind.Finished, w.img.Name(), w.kind.Help, *w.count)
		return true, at, nil
	}
	n, at, err := w.visit(w.pace.Admit(at, 0), w.cur.NextObj, w.pace)
	if err != nil {
		return false, at, err
	}
	w.cur.NextObj++
	*w.count += n
	w.blocks.Add(n)
	at, err = w.save(at)
	w.publish(at)
	return false, at, err
}

// Run drives Step until the walk completes.
func (w *Walk) Run(at vtime.Time) (vtime.Time, error) {
	for {
		done, end, err := w.Step(at)
		if err != nil || done {
			return end, err
		}
		at = end
	}
}

func (w *Walk) save(at vtime.Time) (vtime.Time, error) {
	return w.img.SaveCursor(at, w.kind.Key, w.rec)
}

func (w *Walk) publish(at vtime.Time) {
	w.done.Set(w.cur.NextObj)
	w.total.Set(w.cur.Objects)
	w.debt.SetDuration(w.pace.Debt(at))
	w.stall.SetDuration(w.pace.Stall())
}
