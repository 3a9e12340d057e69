package clone

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/keymgr"
	"repro/internal/vtime"
)

// TestWalkersShareOnePacer pins the shared-budget contract of SetPace:
// a flatten and a rekey on the same clone, handed one Pacer, split one
// combined budget. Together they cannot finish sooner than the op cap
// allows for their summed object visits, and both still converge to a
// clone that reads back exactly under the child's key alone.
func TestWalkersShareOnePacer(t *testing.T) {
	cl := testClient(t)
	base := createBase(t, cl, "base", core.SchemeXTSRand, core.LayoutObjectEnd)
	rng := rand.New(rand.NewSource(61))
	model := make([]byte, imgSize)
	scatterWrites(t, base.WriteAt, model, rng, 24)
	if _, _, err := base.CreateSnap(0, "g"); err != nil {
		t.Fatal(err)
	}
	keys := keysFor("base", "c")
	c, _, err := Create(0, cl, "rbd", "base", "g", "c", keys,
		core.Options{Scheme: core.SchemeXTSRand, Layout: core.LayoutObjectEnd})
	if err != nil {
		t.Fatal(err)
	}
	childModel := append([]byte(nil), model...)
	scatterWrites(t, c.WriteAt, childModel, rng, 8)

	f, fEnd, err := StartFlatten(0, c)
	if err != nil {
		t.Fatal(err)
	}
	r, rEnd, err := keymgr.Start(0, c.Enc())
	if err != nil {
		t.Fatal(err)
	}
	const iops = 10
	pace := vtime.NewPacer(iops, 0)
	f.SetPace(pace)
	r.SetPace(pace)
	for fDone, rDone := false, false; !fDone || !rDone; {
		if !fDone {
			if fDone, fEnd, err = f.Step(fEnd); err != nil {
				t.Fatal(err)
			}
		}
		if !rDone {
			if rDone, rEnd, err = r.Step(rEnd); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Every object visit of either walker is one admission against the
	// shared cap, so the last of them cannot start before (visits-1)/iops.
	// Each walker alone would fit its own visits in half that.
	visits := f.Progress().Objects + r.Progress().Objects
	floor := vtime.Time(float64(visits-1) / iops * 1e9)
	if last := vtime.Max(fEnd, rEnd); last < floor {
		t.Fatalf("walkers sharing a %d op/s pacer finished at %v, want >= %v for %d visits", iops, last, floor, visits)
	}
	if c.Parent() != nil {
		t.Fatal("parent pointer survived the flatten")
	}
	if eps := c.Enc().Epochs(); len(eps) != 1 || eps[0] != r.Progress().To {
		t.Fatalf("epochs after rekey %v, want only %d", eps, r.Progress().To)
	}
	assertImage(t, "shared-pace walkers, same handle", readAll(t, c), childModel)
	c2, _, err := Open(0, cl, "rbd", "c", keysFor("c"))
	if err != nil {
		t.Fatal(err)
	}
	assertImage(t, "shared-pace walkers, child key alone", readAll(t, c2), childModel)
}
