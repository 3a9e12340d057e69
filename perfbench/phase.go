package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/fio"
	"repro/internal/keymgr"
)

// warmupSeconds sizes the untimed lead-in that fills caches and pools,
// in seconds of a fio workload's opsPerSecond.
const warmupSeconds = 1

// phase is what one timed phase measured. On rekey an op is one object
// step and the user bytes are the blocks it re-sealed.
type phase struct {
	attempted, failed int64

	ops, bytes int64
	peakRSSMB  float64

	// Virtual time: bytes over makespan, every op's latency, and the sum
	// of op latencies (over virtSpan it is the effective queue depth).
	virtBytes int64
	virtSpan  time.Duration
	virtLats  []time.Duration
	latSum    time.Duration

	// Wall-clock and CPU cost of the untraced and traced units. The
	// traced run alternates them; their ratio is the tracing overhead.
	untraced, traced cost

	before, after counters
	spans         []span
	payloads      [][]byte
}

// cost is the user bytes, wall time and process CPU time of some units.
type cost struct {
	bytes     int64
	wall, cpu time.Duration
}

// unit times one unit of the timed phase and books it as traced or not.
func (ph *phase) unit(traced bool, f func() (bytes int64, err error)) error {
	c0, w0 := cpuTime(), time.Now()
	b, err := f()
	c := &ph.untraced
	if traced {
		c = &ph.traced
	}
	c.bytes += b
	c.wall += time.Since(w0)
	c.cpu += cpuTime() - c0
	ph.bytes += b
	return err
}

// units is how many pieces the timed phase is cut into: one, or eight
// alternating untraced and traced pieces on a traced run, so that host
// speed drift falls on both kinds alike.
func units(cfg config) int {
	if cfg.trace {
		return 8
	}
	return 1
}

// fioPhase runs the workload through fio at QD 32 in a closed loop: a
// warm-up run, then the timed phase in one fio.Run per unit, so that
// only one queue drain per unit enters the figures. Every run's op count
// and fio seed follow from the workload, cfg.seconds and cfg.seed alone.
func fioPhase(cfg config, e *env) (*phase, error) {
	t := newTracker(e.enc)
	ph := &phase{}
	spec := fio.Spec{Pattern: cfg.w.pattern, BlockSize: cfg.w.bs, QueueDepth: queueDepth}
	// next runs fio for ops ops; run 0 is the warm-up, run u+1 unit u.
	next := func(run, ops int) (fio.Result, error) {
		spec.TotalOps, spec.Seed = ops, cfg.seed*1_000_003+int64(run)
		res, err := t.run(spec, e.now)
		ph.attempted, ph.failed = t.attempted, t.failed
		e.now = max(e.now, res.End)
		return res, err
	}

	if _, err := next(0, cfg.w.opsPerSecond*warmupSeconds); err != nil {
		return ph, err
	}
	perUnit := max(queueDepth*4, int(float64(cfg.w.opsPerSecond)*cfg.seconds)/units(cfg))
	t.lats = nil

	ph.before = startTimed(e)
	for u := 0; u < units(cfg); u++ {
		t.tracing = cfg.trace && u%2 == 1
		err := ph.unit(t.tracing, func() (int64, error) {
			res, err := next(u+1, perUnit)
			ph.ops += int64(res.Ops)
			ph.virtSpan += res.End.Sub(res.Start)
			ph.latSum += res.Reads.Sum + res.Writes.Sum + res.Trims.Sum
			return res.Bytes, err
		})
		if err != nil {
			return ph, err
		}
	}
	ph.after = snapshot(e.cluster)
	ph.peakRSSMB = peakRSSMB()
	ph.virtBytes, ph.virtLats = ph.bytes, t.lats
	ph.spans = t.spans
	ph.payloads = t.written()
	return ph, nil
}

// rotate runs one whole-image rekey, keymgr.Start then Step until done,
// and hands every object step to onStep as a span.
func rotate(e *env, onStep func(span)) (blocks int64, err error) {
	r, now, err := keymgr.Start(e.now, e.enc)
	if err != nil {
		return 0, fmt.Errorf("rekey start: %w", err)
	}
	for {
		before := r.Progress().Rekeyed
		w0 := time.Since(traceEpoch)
		done, end, err := r.Step(now)
		w1 := time.Since(traceEpoch)
		if err != nil {
			return blocks, fmt.Errorf("rekey step: %w", err)
		}
		if !done {
			n := r.Progress().Rekeyed - before
			blocks += n
			onStep(span{kind: "rekey-step", bytes: n * blockSize, wallStart: w0, wallEnd: w1, vArrival: now, vEnd: end})
		}
		now = end
		if done {
			e.now = now
			return blocks, nil
		}
	}
}

// rekeyPhase runs whole-image rotations back to back from one goroutine,
// after one warm-up rotation. An op is one object step. The wall-clock
// figures cover every timed rotation; the virtual figures cover the
// first one only, a fixed amount of work, so they repeat exactly for a
// given seed.
func rekeyPhase(cfg config, e *env) (*phase, error) {
	ph := &phase{}
	if _, err := rotate(e, func(span) {}); err != nil {
		return ph, err
	}
	ph.before = startTimed(e)
	start := time.Now()
	for rot := 0; rot < units(cfg) || time.Since(start).Seconds() < cfg.seconds; rot++ {
		traced := cfg.trace && rot%2 == 1
		v0 := e.now
		err := ph.unit(traced, func() (int64, error) {
			blocks, err := rotate(e, func(s span) {
				ph.attempted++
				s.id = ph.attempted
				if rot == 0 {
					ph.virtLats = append(ph.virtLats, s.vEnd.Sub(s.vArrival))
					ph.latSum += s.vEnd.Sub(s.vArrival)
				}
				if traced {
					ph.spans = append(ph.spans, s)
				}
			})
			return blocks * blockSize, err
		})
		if err != nil {
			ph.attempted++
			ph.failed++
			return ph, err
		}
		if rot == 0 {
			ph.virtBytes, ph.virtSpan = ph.bytes, e.now.Sub(v0)
		}
	}
	ph.ops = ph.attempted
	ph.after = snapshot(e.cluster)
	ph.peakRSSMB = peakRSSMB()
	return ph, nil
}

// startTimed settles the heap and snapshots the layer counters.
func startTimed(e *env) counters {
	runtime.GC()
	return snapshot(e.cluster)
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// writeSpans writes the traced run's spans, kept in memory until now, as
// CSV with times in nanoseconds.
func writeSpans(cfg config, spans []span) error {
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return err
	}
	var b strings.Builder
	b.WriteString("id,kind,bytes,wall_start_ns,wall_end_ns,v_arrival_ns,v_end_ns\n")
	for _, s := range spans {
		fmt.Fprintf(&b, "%d,%s,%d,%d,%d,%d,%d\n", s.id, s.kind, s.bytes,
			int64(s.wallStart), int64(s.wallEnd), int64(s.vArrival), int64(s.vEnd))
	}
	path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.csv", cfg.w.name, cfg.seed))
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
