package main

// endToEndUnits are the metrics of an untraced run, by name.
var endToEndUnits = map[string]string{
	"wall_s":      "s",
	"f1":          "ratio",
	"jobs_per_s":  "1/s",
	"job_tail_s":  "s",
	"peak_rss_mb": "MB",
	"setup_s":     "s",
}

// perLayerUnits are the metrics of a traced run, by name. Every traced
// run reports all of them; a layer that does no work on a workload
// reports 0 there. README.md says which end-to-end metric each should
// move, on which workload.
var perLayerUnits = map[string]string{
	"expr.ingest_s":     "s",
	"expr.ingest_bytes": "bytes",

	"mat.normalize_s":      "s",
	"bspline.precompute_s": "s",
	"perm.threshold_s":     "s",

	"mi.scan_s":               "s",
	"mi.pair_evals":           "count",
	"mi.perm_evals":           "count",
	"mi.perm_skipped":         "count",
	"mi.permcache_hit_ratio":  "ratio",
	"mi.observed_ns_per_eval": "ns",
	"mi.perm_ns_per_eval":     "ns",
	"mi.observed_s_est":       "s",
	"mi.perm_s_est":           "s",

	"core.infer_s":         "s",
	"core.imbalance":       "ratio",
	"core.peak_tile_bytes": "bytes",

	"panelstore.loads":        "count",
	"panelstore.hit_ratio":    "ratio",
	"panelstore.bytes_loaded": "bytes",
	"panelstore.evictions":    "count",
	"panelstore.peak_bytes":   "bytes",

	"grn.dpi_s":       "s",
	"grn.cmi_s":       "s",
	"grn.write_s":     "s",
	"grn.raw_edges":   "count",
	"grn.dpi_removed": "count",
	"grn.cmi_removed": "count",

	"mpi.messages":      "count",
	"mpi.traffic_bytes": "bytes",

	"server.submit_s":     "s",
	"server.scan_s":       "s",
	"server.queue_wait_s": "s",
	"server.result_s":     "s",
	"server.result_bytes": "bytes",

	"fleet.submit_s":             "s",
	"fleet.chunk_span_s":         "s",
	"fleet.chunks_per_job":       "count",
	"fleet.upload_bytes_per_job": "bytes",
	"fleet.polls_per_chunk":      "count",
	"fleet.poll_useful_ratio":    "ratio",
	"fleet.merge_s":              "s",
	"fleet.cache_hit_ratio":      "ratio",
	"fleet.hit_latency_s":        "s",

	"proc.cpu_s":       "s",
	"trace.overhead_s": "s",
}

// metricSet builds a report's metrics from values keyed by name. Every
// name in units is present; names not in units are a bug.
func metricSet(units map[string]string, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(units))
	for name, unit := range units {
		out[name] = metric{Value: values[name], Unit: unit}
	}
	for name := range values {
		if _, ok := units[name]; !ok {
			panic("perfbench: metric " + name + " is not declared")
		}
	}
	return out
}
