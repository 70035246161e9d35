package main

import "fmt"

// metricDef names one metric, its unit and direction. The two tables below
// are the benchmark's vocabulary: BENCHMARK.json lists exactly these (a
// unit test holds the two together), an untraced run prints every
// end-to-end metric and a traced run every per-layer one.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median an end-to-end metric may
	// worsen by before a change counts as a regression; calibrated from
	// repeated runs at HEAD (README, "Calibration").
	Bound float64
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"docs_per_s", "docs/s", "higher", 0.25},
	{"cpu_us_per_doc", "us", "lower", 0.25},
	{"heap_mb", "MB", "lower", 0.17},
	{"notify_p50_ms", "ms", "lower", 0.25},
	{"notifs_per_s", "1/s", "higher", 0.25},
	{"detect_lag_ticks", "ticks", "lower", 0.05},
}

var perLayer = []metricDef{
	{"source.decode_ns_per_doc", "ns", "lower", 0},
	{"source.bytes_per_doc", "B", "lower", 0},
	{"source.sort_item_ns_per_doc", "ns", "lower", 0},
	{"intern.intern_ns_per_tag", "ns", "lower", 0},
	{"intern.table_len", "count", "lower", 0},
	{"tagstats.observe_ns_per_doc", "ns", "lower", 0},
	{"tagstats.top_us_per_tick", "us", "lower", 0},
	{"tagstats.active_tags", "count", "lower", 0},
	{"window.inc_ns", "ns", "lower", 0},
	{"window.slots", "count", "lower", 0},
	{"pairs.observe_ns_per_doc", "ns", "lower", 0},
	{"pairs.pairs_per_doc", "count", "lower", 0},
	{"pairs.snapshot_us_per_tick", "us", "lower", 0},
	{"pairs.tracked_pairs", "count", "lower", 0},
	{"pairs.shard_skew", "ratio", "lower", 0},
	{"pairs.evicted_per_kdoc", "count", "lower", 0},
	{"pairs.promote_us_per_tick", "us", "lower", 0},
	{"tier.demote_ns", "ns", "lower", 0},
	{"tier.candidates_us_per_tick", "us", "lower", 0},
	{"tier.promotions", "count", "higher", 0},
	{"tier.tail_pairs", "count", "lower", 0},
	{"tier.recall_at_20", "ratio", "higher", 0},
	{"sketch.addu64_ns", "ns", "lower", 0},
	{"shift.evaluate_ns_per_pair", "ns", "lower", 0},
	{"shift.evaluate_us_per_tick", "us", "lower", 0},
	{"shift.pruned_share", "ratio", "higher", 0},
	{"shift.sweep_us_per_tick", "us", "lower", 0},
	{"shift.active_states", "count", "lower", 0},
	{"core.consume_ns_per_doc", "ns", "lower", 0},
	{"core.consume1_ns_per_doc", "ns", "lower", 0},
	{"core.tick_p50_us", "us", "lower", 0},
	{"core.tick_p99_us", "us", "lower", 0},
	{"core.tick_share", "ratio", "lower", 0},
	{"core.consume_residual_ns_per_doc", "ns", "lower", 0},
	{"core.tick_residual_us", "us", "lower", 0},
	{"core.dispatch_us_per_tick", "us", "lower", 0},
	{"core.dispatch_ns_per_notif", "ns", "lower", 0},
	{"core.dispatch_share", "ratio", "lower", 0},
	{"core.matched_share", "ratio", "lower", 0},
	{"core.notifs_dropped", "count", "lower", 0},
	{"core.subscribe_us", "us", "lower", 0},
	{"core.notify_p95_ms", "ms", "lower", 0},
	{"core.allocs_per_doc", "count", "lower", 0},
	{"core.gc_pause_ms", "ms", "lower", 0},
	{"core.speedup_vs_serial", "ratio", "higher", 0},
	{"ingest.enqueue_ns_per_doc", "ns", "lower", 0},
	{"ingest.dropped", "count", "lower", 0},
	{"persist.wal_ns_per_doc", "ns", "lower", 0},
	{"persist.wal_bytes_per_doc", "B", "lower", 0},
	{"persist.snapshot_ms", "ms", "lower", 0},
	{"persist.snapshot_mb", "MB", "lower", 0},
	{"persist.restore_ms", "ms", "lower", 0},
	{"persist.replay_docs_per_s", "docs/s", "higher", 0},
	{"persist.restore_allocs", "count", "lower", 0},
	{"persist.recover_s", "s", "lower", 0},
	{"server.ingest_us_per_batch", "us", "lower", 0},
	{"server.net_us_per_batch", "us", "lower", 0},
	{"server.engine_share", "ratio", "lower", 0},
	{"server.publish_us_per_tick", "us", "lower", 0},
	{"server.frame_bytes", "B", "lower", 0},
	{"persona.rerank_us_per_tick", "us", "lower", 0},
	{"server.rankings_get_us", "us", "lower", 0},
	{"server.stats_get_us", "us", "lower", 0},
	{"server.notify_p99_ms", "ms", "lower", 0},
	{"bench.gen_late_p99_ms", "ms", "lower", 0},
	{"bench.trace_overhead_share", "ratio", "lower", 0},
	{"bench.trace_coverage", "ratio", "higher", 0},
	{"bench.failed_share", "ratio", "lower", 0},
}

func findMetric(table []metricDef, name string) *metricDef {
	for i := range table {
		if table[i].Name == name {
			return &table[i]
		}
	}
	return nil
}

// e2e records an end-to-end metric of an untraced run.
func (r *result) e2e(name string, v float64) {
	d := findMetric(endToEnd, name)
	if d == nil {
		panic(fmt.Sprintf("bench: %q is not an end-to-end metric", name))
	}
	r.Metrics[name] = metric{Value: v, Unit: d.Unit}
}

// layer records a per-layer metric of a traced run.
func (r *result) layer(name string, v float64) {
	d := findMetric(perLayer, name)
	if d == nil {
		panic(fmt.Sprintf("bench: %q is not a per-layer metric", name))
	}
	r.Metrics[name] = metric{Value: v, Unit: d.Unit}
}

// fillLayers gives every per-layer metric the traced run did not measure
// the value zero: a layer that a workload never enters has no cost there,
// and a traced run reports the full vocabulary.
func (r *result) fillLayers() {
	for _, d := range perLayer {
		if _, ok := r.Metrics[d.Name]; !ok {
			r.Metrics[d.Name] = metric{Value: 0, Unit: d.Unit}
		}
	}
}
