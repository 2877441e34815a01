package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"sweepsched"
)

// TestMain lets the multi-process executor re-execute the test binary as
// its workers.
func TestMain(m *testing.M) {
	sweepsched.MaybeProcWorker()
	os.Exit(m.Run())
}

func TestPercentile(t *testing.T) {
	cases := []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{7}, 0.5, 7},
		{[]float64{7}, 0.9, 7},
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9, 9.1},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0, 1},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 1, 10},
		{[]float64{5, 5, 5, 1}, 0.5, 5},
	}
	for _, c := range cases {
		in := append([]float64(nil), c.xs...)
		if got := percentile(c.xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", in, c.q, got, c.want)
		}
		for i := range in {
			if in[i] != c.xs[i] {
				t.Fatalf("percentile reordered its input: %v", c.xs)
			}
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) || !math.IsNaN(mean(nil)) {
		t.Error("an empty sample must give NaN")
	}
}

// benchmarkJSON is the part of the repository's BENCHMARK.json the
// program must agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func (d *metricDef) UnmarshalJSON(b []byte) error {
	var v struct{ Name, Unit, Better string }
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*d = metricDef{v.Name, v.Unit, v.Better}
	return nil
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloads)
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}

// tinyConfig shrinks every instance so a whole run takes a second or
// two.
func tinyConfig(seed uint64) config {
	c := mkConfig(seed)
	c.pipeScale, c.pipeK, c.pipeM, c.qualityOps = 0.005, 8, 4, 3
	c.solveScale, c.solveBlock, c.solvePlans = 0.005, 16, 2
	c.svcScale, c.svcK, c.svcM = 0.005, 8, 4
	c.setupReps = 1
	return c
}

// runTiny performs one tiny run: minimum operation counts on shrunken
// instances.
func runTiny(t *testing.T, workload string, seed uint64, traced bool) *output {
	t.Helper()
	var report bytes.Buffer
	out, err := benchmark(&report, tinyConfig(seed), workload, 0, traced, t.TempDir())
	if err != nil {
		t.Fatalf("%s (traced %v): %v\n%s", workload, traced, err, report.String())
	}
	if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
		t.Fatalf("%s (traced %v): %d of %d operations failed\n%s", workload, traced, out.Failed, out.Attempted, report.String())
	}
	want := endToEnd
	if traced {
		want = perLayer
	}
	if len(out.Metrics) != len(want) {
		t.Fatalf("%s: %d metrics, want %d", workload, len(out.Metrics), len(want))
	}
	return out
}

func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process smoke runs")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			out := runTiny(t, w, 1, traced)
			for name, m := range out.Metrics {
				// The tracing overhead is a difference of two timings
				// and may come out negative.
				if m.Value < 0 && name != "obs.trace_overhead_s" {
					t.Errorf("%s: %s = %v", w, name, m.Value)
				}
			}
			if !traced {
				for _, d := range endToEnd {
					if out.Metrics[d.name].Value == 0 {
						t.Errorf("%s: end-to-end metric %s is 0", w, d.name)
					}
				}
			}
		}
	}
}

// exactCounts are the metrics a fixed seed must reproduce exactly.
var exactCounts = map[bool][]string{
	false: {"makespan_ratio", "c1_edges", "c2_rounds", "transmissions"},
	true: {
		"comm.messages", "comm.batches", "comm.bytes",
		"faults.epochs", "faults.recoveries", "faults.tasks_replayed", "faults.penalty_steps",
		"procrun.steps", "transport.iterations",
	},
}

func TestSameSeedSameExactCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process smoke runs")
	}
	for _, traced := range []bool{false, true} {
		a := runTiny(t, "solve", 7, traced)
		b := runTiny(t, "solve", 7, traced)
		for _, name := range exactCounts[traced] {
			if a.Metrics[name] != b.Metrics[name] {
				t.Errorf("%s: %v then %v with one seed", name, a.Metrics[name].Value, b.Metrics[name].Value)
			}
		}
	}
}
