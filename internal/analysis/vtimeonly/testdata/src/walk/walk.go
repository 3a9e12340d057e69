// Package walk seeds vtimeonly violations in a package named like the
// shared walker engine: crash-resume replay and the pacer's admission
// schedule only hold if the engine never samples host state.
package walk

import (
	"math/rand"
	"time"
)

type cursor struct{ nextObj, objects int64 }

func badStepDeadline(c *cursor) bool {
	return time.Since(time.Time{}) > time.Hour && c.nextObj < c.objects // want "time.Since reads the host clock"
}

func badBackoff() {
	time.Sleep(time.Millisecond) // want "time.Sleep reads the host clock"
}

func badStartObject(c *cursor) {
	c.nextObj = rand.Int63n(c.objects) // want "global math/rand.Int63n is process-seeded"
}

func okAdmit(at, next int64) int64 {
	if next > at {
		return next
	}
	return at
}
