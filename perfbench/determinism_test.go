package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
)

// testSizes shrink every workload to about a second of traffic over tiny
// datasets, with just enough operations for each reported percentile.
var testSizes = sizes{
	ingestScale: 0.002, ingestRate: 1_500_000,
	mixedScale: 0.002, prefill: 20_000, minUsers: 1000, pacedRate: 100_000, pacedBatch: 500,
	durableScale: 0.002, durableRate: 700_000, durableBatch: 1000,
	heavy: 10, present: 200, absent: 10, topkProbes: 100,
	layerEdges: 1 << 14,
}

// buildDaemon compiles cardserved once per test binary run.
func buildDaemon(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and drives cardserved")
	}
	bin := filepath.Join(t.TempDir(), "cardserved")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/cardserved")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building cardserved: %v\n%s", err, out)
	}
	return bin
}

// With one ingest connection and rotations and checkpoints at fixed edge
// offsets, the accuracy figures of a seed are bit-identical across runs,
// and every correctness check passes.
func TestAccuracyDeterministicPerSeed(t *testing.T) {
	bin := buildDaemon(t)
	work := t.TempDir()
	for _, w := range workloadNames() {
		var got [2][2]float64
		for i := range got {
			r := newRun(7, 1, bin, work, false, testSizes)
			if err := workloads[w](r); err != nil {
				t.Fatalf("%s run %d: %v", w, i, err)
			}
			if len(r.problems) > 0 || r.invalid != "" {
				t.Fatalf("%s run %d: checks failed: %v; invalid: %q", w, i, r.problems, r.invalid)
			}
			got[i] = [2]float64{r.totalRelErr, r.userARE}
		}
		if got[0] != got[1] {
			t.Errorf("%s: accuracy differs across runs of one seed: %v vs %v", w, got[0], got[1])
		}
		if got[0][1] == 0 {
			t.Errorf("%s: user ARE is exactly 0; the read-back compared nothing", w)
		}
	}
}

// Every workload BENCHMARK.json names exists and reports exactly the
// metrics it names: the end-to-end ones untraced, the per-layer ones
// traced. query_mixed runs but is not gated (see README.md); it reports
// the same metrics.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	bin := buildDaemon(t)
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Fatalf("BENCHMARK.json names workload %q, which the benchmark does not run", w.Name)
		}
	}
	for _, w := range workloadNames() {
		for _, traced := range []bool{false, true} {
			res, err := execute(w, 3, 1, traced, bin, t.TempDir(), testSizes, nil)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if len(res.problems) > 0 || res.invalid != "" {
				t.Fatalf("%s traced=%v: checks failed: %v; invalid: %q", w, traced, res.problems, res.invalid)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			var gotNames, wantNames []string
			for k := range res.metrics {
				gotNames = append(gotNames, k)
			}
			for _, m := range want {
				wantNames = append(wantNames, m.Name)
				if got, ok := res.metrics[m.Name]; ok && got.Unit != m.Unit {
					t.Errorf("%s: %s unit %q, BENCHMARK.json says %q", w, m.Name, got.Unit, m.Unit)
				}
			}
			sort.Strings(gotNames)
			sort.Strings(wantNames)
			if !equal(gotNames, wantNames) {
				t.Errorf("%s traced=%v reports %v;\nBENCHMARK.json names %v", w, traced, gotNames, wantNames)
			}
		}
	}
}

func equal(a, b []string) bool {
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
