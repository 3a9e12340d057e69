package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// declared reads the metric names and units BENCHMARK.json promises and
// checks that every workload it lists exists.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Fatalf("BENCHMARK.json: %v", err)
		}
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func tinyRun(t *testing.T, w workload, seed int64, trace bool) *result {
	t.Helper()
	res, err := run(config{w: w, seed: seed, seconds: 0.2, trace: trace,
		imageBytes: 16 << 20, setups: 1, traceDir: t.TempDir()})
	if err != nil {
		t.Fatalf("%s trace=%v: %v", w.name, trace, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

// TestEveryWorkloadPrintsEveryMetric runs each workload at a tiny size,
// untraced and traced, and checks that each run passes its read-back
// check and reports exactly the metrics BENCHMARK.json declares.
func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := endToEnd
			if trace {
				want = perLayer
			}
			res := tinyRun(t, w, 1, trace)
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				if got, ok := res.Metrics[name]; !ok || got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, trace, name, got, unit)
				}
			}
		}
	}
}

// rekeyHelperEnv makes the test binary run TestRekeyHelper as one tiny
// same-seed rekey run; TestRekeyVirtualRepeats starts it twice.
const rekeyHelperEnv = "PERFBENCH_REKEY_HELPER"

// TestRekeyHelper is one tiny rekey run, printed as its JSON result line.
// It runs only when the test binary is re-executed by
// TestRekeyVirtualRepeats.
func TestRekeyHelper(t *testing.T) {
	if os.Getenv(rekeyHelperEnv) != "1" {
		t.Skip("runs only as a subprocess of TestRekeyVirtualRepeats")
	}
	w, err := findWorkload("objend-rekey")
	if err != nil {
		t.Fatal(err)
	}
	line, _ := json.Marshal(tinyRun(t, w, 7, false))
	fmt.Println(string(line))
}

// TestRekeyVirtualRepeats pins that the rekey workload's virtual figures
// depend on the seed alone. Each run is its own process, as the
// benchmark is invoked: the test binary re-executes itself.
func TestRekeyVirtualRepeats(t *testing.T) {
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	runOnce := func() result {
		cmd := exec.Command(self, "-test.run=^TestRekeyHelper$")
		cmd.Env = append(os.Environ(), rekeyHelperEnv+"=1")
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("helper run: %v\n%s", err, out)
		}
		for _, line := range strings.Split(string(out), "\n") {
			var r result
			if strings.HasPrefix(line, "{") && json.Unmarshal([]byte(line), &r) == nil {
				return r
			}
		}
		t.Fatalf("helper printed no result:\n%s", out)
		return result{}
	}
	a, b := runOnce(), runOnce()
	for _, name := range []string{"virt_mbps", "virt_p99_us"} {
		if _, ok := a.Metrics[name]; !ok {
			t.Fatalf("%s missing from %+v", name, a.Metrics)
		}
		if a.Metrics[name] != b.Metrics[name] {
			t.Errorf("%s: %v then %v with the same seed", name, a.Metrics[name].Value, b.Metrics[name].Value)
		}
	}
}
