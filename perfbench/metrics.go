package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics every untraced run emits, on every
// workload. README.md defines each one per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"programs_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"goodput_share", "ratio"},
	{"peak_rss_mb", "MB"},
	{"exec_cost_ratio", "ratio"},
}

// layerMetrics are the per-layer metrics of a traced run that are not
// split by size bucket.
var layerMetrics = []metricDef{
	{"frontend.parse_ns_per_node", "ns/node"},
	{"frontend.parse_allocs_per_node", "allocs/node"},
	{"cfg.build_ns_per_node", "ns/node"},
	{"cfg.build_allocs_per_node", "allocs/node"},
	{"interval.reduce_ns_per_node", "ns/node"},
	{"interval.reduce_allocs_per_node", "allocs/node"},
	{"sections.universe_ns_per_node", "ns/node"},
	{"sections.items_per_node", "items/node"},
	{"core.solve_ns_per_node", "ns/node"},
	{"core.solve_allocs_per_node", "allocs/node"},
	{"core.evals_per_node", "evals/node"},
	{"core.word_ops_per_node", "ops/node"},
	{"check.verify_ns_per_node", "ns/node"},
	{"check.verify_allocs_per_node", "allocs/node"},
	{"check.contexts_per_node", "ctx/node"},
	{"check.iterations_per_context", "iters/ctx"},
	{"check.set_ops_per_node", "ops/node"},
	{"check.write_o1_share", "ratio"},
	{"comm.render_ns_per_node", "ns/node"},
	{"engine.parallel_speedup", "x"},
	{"engine.check_queue_depth_mean", "tasks"},
	{"engine.shed", "count"},
	{"runtime.gc_cpu_share", "ratio"},
	{"serve.hit_latency_p50_ms", "ms"},
	{"serve.miss_latency_p50_ms", "ms"},
	{"serve.miss_latency_p99_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.admission_wait_ms_mean", "ms"},
	{"serve.rung_full_share", "ratio"},
	{"serve.gen_lag_p99_ms", "ms"},
	{"run.latency_samples", "count"},
	{"run.error_share", "ratio"},
	{"run.machine_slowdown", "ratio"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.spans", "count"},
}

// Size buckets group programs by interval-graph node count: a program
// lands in the first bucket whose bound is at least its node count.
var buckets = [...]struct {
	name  string
	bound int
}{
	{"n128", 128}, {"n256", 256}, {"n512", 512},
	{"n1024", 1024}, {"n2048", 2048}, {"n4096", math.MaxInt},
}

// bucketOf returns the bucket name of a program with the given node
// count.
func bucketOf(nodes int) string {
	for _, b := range buckets {
		if nodes <= b.bound {
			return b.name
		}
	}
	return buckets[len(buckets)-1].name
}

// bucketed lists the layer metrics that are also reported per size
// bucket, as "<name>.<bucket>": the per-node costs whose growth with
// program size is the point of the sweep, and the two exact counts
// that witness the solver's one-pass bound and the verifier's
// per-context iteration growth. Each is reported up to the largest
// bucket a workload reaches for it: the verifier only runs on programs
// of verify-batch and serve-mixed, none of them over 512 nodes.
var bucketed = []bucketDef{
	{metricDef{"frontend.parse_ns_per_node", "ns/node"}, allBuckets},
	{metricDef{"frontend.parse_allocs_per_node", "allocs/node"}, allBuckets},
	{metricDef{"cfg.build_ns_per_node", "ns/node"}, allBuckets},
	{metricDef{"cfg.build_allocs_per_node", "allocs/node"}, allBuckets},
	{metricDef{"interval.reduce_ns_per_node", "ns/node"}, allBuckets},
	{metricDef{"interval.reduce_allocs_per_node", "allocs/node"}, allBuckets},
	{metricDef{"sections.universe_ns_per_node", "ns/node"}, allBuckets},
	{metricDef{"core.solve_ns_per_node", "ns/node"}, allBuckets},
	{metricDef{"core.solve_allocs_per_node", "allocs/node"}, allBuckets},
	{metricDef{"core.evals_per_node", "evals/node"}, allBuckets},
	{metricDef{"check.verify_ns_per_node", "ns/node"}, verifierBuckets},
	{metricDef{"check.verify_allocs_per_node", "allocs/node"}, verifierBuckets},
	{metricDef{"check.iterations_per_context", "iters/ctx"}, verifierBuckets},
	{metricDef{"comm.render_ns_per_node", "ns/node"}, allBuckets},
}

// bucketDef is a metric reported per size bucket, in the first top
// buckets.
type bucketDef struct {
	metricDef
	top int
}

const (
	allBuckets      = len(buckets)
	verifierBuckets = 3 // n128, n256, n512
)

// perLayer is every metric a traced run emits, on every workload. A
// layer the workload never calls reports 0.
func perLayer() []metricDef {
	out := append([]metricDef(nil), layerMetrics...)
	for _, m := range bucketed {
		for _, b := range buckets[:m.top] {
			out = append(out, metricDef{m.name + "." + b.name, m.unit})
		}
	}
	return out
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit fills the result metrics for defs from values. A metric without
// a value reports 0; a non-finite value is an error, since JSON cannot
// carry it.
func emit(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite", d.name)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}

// quantile returns the q-quantile of xs (0 ≤ q ≤ 1), interpolating
// linearly between order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean returns the arithmetic mean of xs; 0 for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
