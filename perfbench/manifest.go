package main

import "fmt"

// metricDef is a metric BENCHMARK.json names, with its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every workload reports with --trace 0, in
// BENCHMARK.json's order. Each is measured on every workload; a job is a
// served request on serve-*, one store.Run kernel run on ooc.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"jobs_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"live_heap_mb", "MB"},
}

// perLayer are the metrics every workload reports with --trace 1, in
// BENCHMARK.json's order. A layer the workload never reaches reports 0
// (the store on serve-*, the service path on ooc); the result's info
// lists those metrics under "unreached".
var perLayer = []metricDef{
	{"serve.submit_rtt_p50_ms", "ms"},
	{"serve.status_rtt_p50_ms", "ms"},
	{"serve.result_rtt_p50_ms", "ms"},
	{"serve.normalize_p50_us", "us"},
	{"serve.handler_submit_p50_ms", "ms"},
	{"serve.handler_result_p50_ms", "ms"},
	{"serve.result_bytes_per_job", "B"},
	{"serve.polls_per_job", "count"},
	{"serve.queue_poll_wait_p50_ms", "ms"},
	{"serve.result_cache_hit_ratio", "ratio"},
	{"serve.plan_cache_hit_ratio", "ratio"},
	{"serve.encode_p50_ms", "ms"},
	{"serve.registry_put_p50_ms", "ms"},
	{"serve.upload_p50_ms", "ms"},
	{"gio.encode_p50_ms", "ms"},
	{"gio.decode_p50_ms", "ms"},
	{"partition.plan_p50_ms", "ms"},
	{"partition.plans_built", "count"},
	{"sim.exec_p50_ms", "ms"},
	{"sim.exec_p95_ms", "ms"},
	{"sim.exec_share", "ratio"},
	{"sim.movement_bytes_total", "B"},
	{"cluster.exec_p50_ms", "ms"},
	{"cluster.exec_share", "ratio"},
	{"kernels.exec_p50_ms", "ms"},
	{"kernels.exec_share", "ratio"},
	{"kernels.inmem_ms.bfs", "ms"},
	{"kernels.inmem_ms.cc", "ms"},
	{"kernels.inmem_ms.pagerank", "ms"},
	{"kernels.inmem_ms.sssp", "ms"},
	{"store.edges_per_s.resident", "edges/s"},
	{"store.edges_per_s.pressure", "edges/s"},
	{"store.run_ms.resident.bfs", "ms"},
	{"store.run_ms.resident.cc", "ms"},
	{"store.run_ms.resident.pagerank", "ms"},
	{"store.run_ms.resident.sssp", "ms"},
	{"store.run_ms.pressure.bfs", "ms"},
	{"store.run_ms.pressure.cc", "ms"},
	{"store.run_ms.pressure.pagerank", "ms"},
	{"store.run_ms.pressure.sssp", "ms"},
	{"store.far_bytes.resident", "B"},
	{"store.far_bytes.pressure", "B"},
	{"store.misses.resident", "count"},
	{"store.misses.pressure", "count"},
	{"store.hits.resident", "count"},
	{"store.hits.pressure", "count"},
	{"store.evictions.resident", "count"},
	{"store.evictions.pressure", "count"},
	{"store.hit_ratio.resident", "ratio"},
	{"store.hit_ratio.pressure", "ratio"},
	{"store.pin_miss_p50_us", "us"},
	{"store.miss_decode_MBps", "MB/s"},
	{"store.pin_hit_p50_ns", "ns"},
	{"store.over_inmem.resident", "ratio"},
	{"store.over_inmem.pressure", "ratio"},
	{"store.write_s", "s"},
	{"store.open_ms", "ms"},
	{"gen.generate_s", "s"},
	{"trace.overhead_frac", "ratio"},
}

// resultMetrics returns the metrics of the result line: exactly the
// mode's manifest metrics, each in its manifest unit. A missing
// end-to-end metric, a metric outside the manifest, or a unit that
// differs from it is an error; a missing per-layer metric is a layer
// the workload does not reach, reported as 0 and listed in unreached.
func resultMetrics(got map[string]metric, trace bool) (out map[string]metric, unreached []string, err error) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	out = make(map[string]metric, len(defs))
	for _, d := range defs {
		m, ok := got[d.name]
		switch {
		case !ok && trace:
			m = metric{Value: 0, Unit: d.unit}
			unreached = append(unreached, d.name)
		case !ok:
			return nil, nil, fmt.Errorf("end-to-end metric %s was not measured", d.name)
		case m.Unit != d.unit:
			return nil, nil, fmt.Errorf("metric %s measured in %s, manifest unit %s", d.name, m.Unit, d.unit)
		}
		out[d.name] = m
	}
	for name := range got {
		if _, ok := out[name]; !ok {
			return nil, nil, fmt.Errorf("metric %s is not in the manifest for --trace %d", name, b2i(trace))
		}
	}
	return out, unreached, nil
}
