package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one reported metric. The lists below are the contract
// BENCHMARK.json at the repository root describes; TestMetricNamesMatch
// keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the user-visible metrics of an untraced run (--trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"pipeline_p50_s", "s", "lower"},
	{"pipeline_p90_s", "s", "lower"},
	{"makespan_ratio", "ratio", "lower"},
	{"c1_edges", "count", "lower"},
	{"c2_rounds", "count", "lower"},
	{"solve_serial_s", "s", "lower"},
	{"solve_parallel_s", "s", "lower"},
	{"solve_ft_s", "s", "lower"},
	{"solve_procs_s", "s", "lower"},
	{"transmissions", "count", "lower"},
	{"req_p50_s", "s", "lower"},
	{"req_p90_s", "s", "lower"},
	{"req_per_s", "1/s", "higher"},
}

// perLayer are the single-layer metrics of a traced run (--trace 1).
// Times are means per operation; allocs and bytes are runtime.MemStats
// deltas across the layer call, per operation.
var perLayer = []metricDef{
	{"mesh.gen_s", "s", "lower"},
	{"mesh.gen_allocs", "count", "lower"},
	{"mesh.gen_bytes", "B", "lower"},
	{"dag.skeleton_s", "s", "lower"},
	{"dag.skeleton_allocs", "count", "lower"},
	{"dag.skeleton_bytes", "B", "lower"},
	{"dag.family_s", "s", "lower"},
	{"dag.family_allocs", "count", "lower"},
	{"dag.family_bytes", "B", "lower"},
	{"dag.edges", "count", "lower"},
	{"partition.assign_s", "s", "lower"},
	{"partition.assign_allocs", "count", "lower"},
	{"partition.assign_bytes", "B", "lower"},
	{"heuristics.priorities_s", "s", "lower"},
	{"heuristics.priorities_allocs", "count", "lower"},
	{"heuristics.priorities_bytes", "B", "lower"},
	{"sched.kernel_s", "s", "lower"},
	{"sched.kernel_allocs", "count", "lower"},
	{"sched.kernel_bytes", "B", "lower"},
	{"sched.kernel_steps", "count", "lower"},
	{"sched.metrics_s", "s", "lower"},
	{"sched.metrics_allocs", "count", "lower"},
	{"sched.metrics_bytes", "B", "lower"},
	{"verify.audit_s", "s", "lower"},
	{"verify.audit_allocs", "count", "lower"},
	{"verify.audit_bytes", "B", "lower"},
	{"transport.iterations", "count", "lower"},
	{"transport.sweep_s", "s", "lower"},
	{"transport.parallel_step_s", "s", "lower"},
	{"transport.parallel_allocs", "count", "lower"},
	{"transport.parallel_bytes", "B", "lower"},
	{"comm.messages", "count", "lower"},
	{"comm.batches", "count", "lower"},
	{"comm.bytes", "B", "lower"},
	{"faults.epochs", "count", "lower"},
	{"faults.recoveries", "count", "lower"},
	{"faults.tasks_replayed", "count", "lower"},
	{"faults.penalty_steps", "count", "lower"},
	{"procrun.steps", "count", "lower"},
	{"procrun.transmissions", "count", "lower"},
	{"procrun.bytes", "B", "lower"},
	{"procrun.step_s", "s", "lower"},
	{"service.cache.skeleton.hit_ratio", "ratio", "higher"},
	{"service.cache.family.hit_ratio", "ratio", "higher"},
	{"service.cache.schedule.hit_ratio", "ratio", "higher"},
	{"service.cache.evictions", "count", "lower"},
	{"service.admission.wait_s", "s", "lower"},
	{"service.flight.coalesced", "count", "higher"},
	{"service.build.schedule_s", "s", "lower"},
	{"service.solve.transport_s", "s", "lower"},
	{"obs.trace_overhead_s", "s", "lower"},
}

// metricSet collects the values of one run by name.
type metricSet map[string]float64

// emit returns the metrics of defs in the output shape, failing if any is
// missing or not a finite number.
func (ms metricSet) emit(defs []metricDef) (map[string]outMetric, error) {
	out := make(map[string]outMetric, len(defs))
	for _, d := range defs {
		v, ok := ms[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = outMetric{Value: v, Unit: d.unit}
	}
	return out, nil
}

type outMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between the closest ranks; xs is not modified. It
// returns NaN for an empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
