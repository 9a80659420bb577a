package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/hypermatrix"
	"repro/internal/kernels"
)

// testSizes runs every workload at a small scale.
var testSizes = sizes{dim: 512, block: 128, tasks: 2000, objects: 64, keys: 1 << 18}

// contract is the part of BENCHMARK.json the test checks against.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	return c
}

// runSmall runs one short, small-scale benchmark run and returns its
// result and report text.
func runSmall(t *testing.T, workload string, seed int64, traced, corrupt bool) (result, string) {
	t.Helper()
	var out bytes.Buffer
	res, err := run(config{
		workload: workload, seed: seed, seconds: 0.3, trace: traced,
		sizes: testSizes, corrupt: corrupt, out: &out,
	})
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	return res, out.String()
}

// lineValue returns the value of the report line "name <value> unit...".
func lineValue(report, name, unit string) (float64, bool) {
	for _, line := range strings.Split(report, "\n") {
		f := strings.Fields(line)
		if len(f) >= 3 && f[0] == name && f[2] == unit {
			v, err := strconv.ParseFloat(f[1], 64)
			return v, err == nil
		}
	}
	return 0, false
}

func hasLine(report, name, unit string) bool {
	_, ok := lineValue(report, name, unit)
	return ok
}

func TestWorkloadsMatchContract(t *testing.T) {
	c := readContract(t)
	var names []string
	for _, w := range c.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
}

func TestEndToEndMetricsPrinted(t *testing.T) {
	c := readContract(t)
	rates := map[string][2]string{
		"cholesky":  {"gflops", "Gflop/s"},
		"taskstorm": {"tasks_per_s", "tasks/s"},
		"multisort": {"mkeys_per_s", "Mkeys/s"},
	}
	for _, w := range workloadNames {
		res, report := runSmall(t, w, 1, false, false)
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("%s: correct=%t failed=%d attempted=%d\n%s", w, res.Correct, res.Failed, res.Attempted, report)
		}
		if len(res.Metrics) != len(c.EndToEnd) {
			t.Errorf("%s: %d metrics in the result, BENCHMARK.json names %d", w, len(res.Metrics), len(c.EndToEnd))
		}
		for _, m := range c.EndToEnd {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit || got.Value == 0 {
				t.Errorf("%s: metric %s = %+v, want a nonzero value in %s", w, m.Name, got, m.Unit)
			}
			if !hasLine(report, m.Name, m.Unit) {
				t.Errorf("%s: report lacks a %s line in %s", w, m.Name, m.Unit)
			}
		}
		for _, e := range [][2]string{{"solve_s.tail", "s"}, {"fail_frac", "ratio"}, {"peak_rss_mb", "MiB"}} {
			if !hasLine(report, e[0], e[1]) {
				t.Errorf("%s: report lacks %s in %s", w, e[0], e[1])
			}
		}
		if e := rates[w]; !hasLine(report, e[0], e[1]) {
			t.Errorf("%s: report lacks %s in %s", w, e[0], e[1])
		}
	}
}

func TestPerLayerMetricsPrinted(t *testing.T) {
	c := readContract(t)
	for _, w := range workloadNames {
		res, report := runSmall(t, w, 1, true, false)
		if !res.Correct {
			t.Fatalf("%s: traced run failed %d of %d solves\n%s", w, res.Failed, res.Attempted, report)
		}
		if len(res.Metrics) != len(c.PerLayer) {
			t.Errorf("%s: %d metrics in the result, BENCHMARK.json names %d", w, len(res.Metrics), len(c.PerLayer))
		}
		for _, m := range c.PerLayer {
			if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s: metric %s = %+v, want unit %s", w, m.Name, got, m.Unit)
			}
		}
	}
}

func TestCorruptedOutputFails(t *testing.T) {
	for _, w := range workloadNames {
		res, report := runSmall(t, w, 1, false, true)
		if res.Correct || res.Failed == 0 || res.Failed != res.Attempted {
			t.Errorf("%s: corrupted outputs gave correct=%t failed=%d of %d", w, res.Correct, res.Failed, res.Attempted)
		}
		if v, ok := lineValue(report, "fail_frac", "ratio"); !ok || v != 1 {
			t.Errorf("%s: fail_frac reads %v with every output corrupted, want 1", w, v)
		}
	}
}

// TestStreamMatchesRuntime checks that the access stream the isolated
// replays use has as many tasks as the runtime executes per solve.
func TestStreamMatchesRuntime(t *testing.T) {
	for _, w := range workloadNames {
		res, _ := runSmall(t, w, 2, true, false)
		wl, err := newWorkload(w, 2, testSizes)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := len(wl.stream()), res.Metrics["core.tasks_per_solve"].Value; float64(got) != want {
			t.Errorf("%s: stream has %d tasks, the runtime executes %v per solve", w, got, want)
		}
	}
}

func TestSameSeedSameCounts(t *testing.T) {
	deterministic := map[string][]string{
		"cholesky":  {"core.tasks_per_solve", "deps.true_edges_per_task", "graph.critical_path"},
		"taskstorm": {"core.tasks_per_solve", "deps.true_edges_per_task", "graph.critical_path"},
		"multisort": {"core.tasks_per_solve", "graph.critical_path"},
	}
	for _, w := range workloadNames {
		a, _ := runSmall(t, w, 5, true, false)
		b, _ := runSmall(t, w, 5, true, false)
		for _, name := range deterministic[w] {
			if a.Metrics[name].Value != b.Metrics[name].Value || a.Metrics[name].Value == 0 {
				t.Errorf("%s: %s is %v then %v with the same seed", w, name, a.Metrics[name].Value, b.Metrics[name].Value)
			}
		}
	}
}

// TestTiledReferenceMatchesUnblocked checks the sequential tiled
// factor the cholesky workload compares against with an independent,
// unblocked factorization.
func TestTiledReferenceMatchesUnblocked(t *testing.T) {
	const dim, block = 256, 64
	flat := kernels.GenSPD(dim, 3)
	h := hypermatrix.FromFlat(flat, dim/block, block)
	tiledCholesky(h, kernels.NewScratch())
	if !kernels.CholeskyFlat(flat, dim) {
		t.Fatal("unblocked factorization failed")
	}
	if d := kernels.LowerMaxAbsDiff(h.ToFlat(), flat, dim); d > 1e-3 {
		t.Fatalf("tiled factor differs from the unblocked one by %g", d)
	}
}
