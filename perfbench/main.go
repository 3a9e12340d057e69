// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It builds the paper's cluster, formats and preconditions a
// 256 MiB encrypted image, runs one named workload for about -seconds
// seconds, checks every block it reads back, and prints one JSON result
// line. With -trace 0 the result holds the end-to-end metrics; with
// -trace 1 it holds the per-layer metrics, taken from outside each layer:
// timed calls into public functions and the stats the layers export.
//
//	go run . -workload objend-4k-randwrite -seed 1 -seconds 10 -trace 0
//
// GOMAXPROCS is pinned to 2: virtual time comes from real goroutine
// interleaving, so it moves with this setting.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Every run times five set-ups and writes a traced run's spans here,
// relative to the repository root it runs from.
const (
	setups   = 5
	traceDir = ".bench_build/perfbench-trace"
)

// config is one invocation's settings.
type config struct {
	w          workload
	seed       int64
	seconds    float64
	trace      bool
	imageBytes int64
	setups     int
	traceDir   string
}

func main() {
	runtime.GOMAXPROCS(maxProcs)
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "length of the timed phase in seconds")
		trace   = flag.Int("trace", 0, "1 prints per-layer metrics from a traced run, 0 end-to-end metrics")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -seconds > 0 and -trace 0 or 1")
		os.Exit(2)
	}
	cfg := config{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1,
		imageBytes: imageBytes, setups: setups, traceDir: traceDir}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", w.name, cfg.seed, err)
	}
	if res == nil {
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-40s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if err != nil || !res.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark invocation. A failed op or a read-back
// mismatch returns a result with Correct false and the error.
func run(cfg config) (*result, error) {
	setupS, e, err := timedSetups(cfg)
	if err != nil {
		return nil, err
	}
	defer e.close()

	var ph *phase
	if cfg.w.rekey {
		ph, err = rekeyPhase(cfg, e)
	} else {
		ph, err = fioPhase(cfg, e)
	}
	res := &result{Metrics: map[string]metric{}}
	if ph != nil {
		res.Attempted, res.Failed = ph.attempted, ph.failed
	}
	if err != nil {
		return res, err
	}
	if cfg.trace {
		if err := layerMetrics(cfg, e, ph, res.Metrics); err != nil {
			return res, err
		}
		if err := writeSpans(cfg, ph.spans); err != nil {
			return res, err
		}
	} else {
		endToEnd(ph, setupS, res.Metrics)
	}
	// The read-back check runs after every probe, so probes are checked
	// too. Every finished rekey must have left exactly one live epoch.
	if err := verify(e.enc, e.want, ph.payloads, cfg.w.bs); err != nil {
		return res, err
	}
	if eps := e.enc.Epochs(); len(eps) != 1 {
		return res, fmt.Errorf("%d key epochs live after rekey, want 1", len(eps))
	}
	if res.Failed != 0 {
		return res, errors.New("ops failed")
	}
	res.Correct = true
	return res, nil
}

// timedSetups builds the environment cfg.setups times and returns the
// median set-up time with the last environment.
//
// Set-up time is the process's CPU seconds (user+sys, every goroutine
// and the GC) spent in one set-up, run with GOMAXPROCS 1, scaled by the
// host's speed. Wall time counts the time other tenants hold the host's
// CPUs. CPU time on two Ps counts the idle P's GC mark work and
// spinning, so it reads about twice the wall time on a quiet host and
// once under contention; on one P it is the work set-up does. Even that
// followed the shared host's speed, which drifted by a factor of 1.8
// within two minutes, so each set-up's CPU time is divided by the mean
// of refWork's CPU time just before and just after it and multiplied by
// refWorkSeconds: set-up time at the speed of a quiet reference host.
// Each set-up after the first reuses the heap the previous one freed, so
// the median is not a measure of page-fault cost.
func timedSetups(cfg config) (float64, *env, error) {
	var times []float64
	var e *env
	runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(maxProcs)
	for i := 0; i < cfg.setups; i++ {
		if e != nil {
			e.close()
			e = nil
			runtime.GC()
		}
		ref0 := refWork()
		c0 := cpuTime()
		var err error
		if e, err = setup(cfg.w, cfg.imageBytes, cfg.seed); err != nil {
			return 0, nil, fmt.Errorf("setup: %w", err)
		}
		cpu := (cpuTime() - c0).Seconds()
		ref := (ref0 + refWork()) / 2
		fmt.Fprintf(os.Stderr, "perfbench: set-up %d: %.4f CPU s, reference work %.4f s\n", i, cpu, ref)
		times = append(times, cpu*refWorkSeconds/ref)
	}
	return median(times), e, nil
}

func endToEnd(ph *phase, setupS float64, m map[string]metric) {
	m["virt_mbps"] = metric{float64(ph.virtBytes) / ph.virtSpan.Seconds() / 1e6, "MB/s"}
	m["virt_p99_us"] = metric{float64(quantile(ph.virtLats, 0.99)) / 1e3, "us"}
	m["setup_s"] = metric{setupS, "s"}
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the exact rank quantile fio uses: sorted[int(q*(n-1))].
func quantile(d []time.Duration, q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := slices.Clone(d)
	slices.Sort(s)
	return s[int(q*float64(len(s)-1))]
}
