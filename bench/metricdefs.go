package main

// metricDef declares one metric. BENCHMARK.json repeats these tables; a test
// keeps the two identical.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a user of the system sees; every workload reports all of
// them from an untraced run. Bounds come from A/A data (README, "Noise"):
// on this shared sandbox every timing needs the widest bound the contract
// allows; the two count-like metrics repeat to within 2 %. txn_p95_us was
// the eighth; the acceptance check measured its spread at 20–25 % on
// dc_inproc, so it is reported per layer, under the same name.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"txn_per_s", "1/s", "higher", 0.25},
	{"txn_mid_us", "us", "lower", 0.25},
	{"restart_first_txn_ms", "ms", "lower", 0.25},
	{"restart_full_ms", "ms", "lower", 0.25},
	{"disk_bytes_per_txn", "B", "lower", 0.06},
	{"heap_live_mb", "MB", "lower", 0.03},
}

// perLayer is reported by a traced run (-trace 1). T = span self-time,
// P = probe of a package's public functions, C = registry count; see README
// for each definition and the end-to-end metric it should move.
var perLayer = []metricDef{
	// mmdb facade (T), per traced transaction.
	{"mmdb.begin_us", "us", "lower", 0},
	{"mmdb.lookup_us", "us", "lower", 0},
	{"mmdb.get_us", "us", "lower", 0},
	{"mmdb.update_us", "us", "lower", 0},
	{"mmdb.insert_us", "us", "lower", 0},
	{"mmdb.commit_us", "us", "lower", 0},
	{"mmdb.abort_us", "us", "lower", 0},
	{"mmdb.recover_us", "us", "lower", 0},
	{"mmdb.allocs_per_txn", "count", "lower", 0},
	{"mmdb.alloc_bytes_per_txn", "B", "lower", 0},
	{"mmdb.gc_cpu_share", "%", "lower", 0},
	// txn (C).
	{"txn.commit_p50_us", "us", "lower", 0},
	{"txn.group_wait_p50_us", "us", "lower", 0},
	// lock (P, C).
	{"lock.acquire_release_ns", "ns", "lower", 0},
	{"lock.waits_per_ktxn", "count", "lower", 0},
	{"lock.wait_p95_us", "us", "lower", 0},
	{"lock.deadlock_retries", "count", "lower", 0},
	// mm (P).
	{"mm.insert_ns", "ns", "lower", 0},
	{"mm.update_ns", "ns", "lower", 0},
	{"mm.read_ns", "ns", "lower", 0},
	{"mm.snapshot_us", "us", "lower", 0},
	{"mm.fromimage_us", "us", "lower", 0},
	{"mm.history_parts", "count", "lower", 0},
	// heap (P).
	{"heap.encode_ns", "ns", "lower", 0},
	{"heap.decode_ns", "ns", "lower", 0},
	// linhash, ttree (P).
	{"linhash.lookup_ns", "ns", "lower", 0},
	{"linhash.insert_ns", "ns", "lower", 0},
	{"ttree.lookup_ns", "ns", "lower", 0},
	{"ttree.lookup_allocs", "count", "lower", 0},
	{"ttree.range20_ns", "ns", "lower", 0},
	// wal, stablemem (P).
	{"wal.encode_ns_per_rec", "ns", "lower", 0},
	{"wal.decode_ns_per_rec", "ns", "lower", 0},
	{"wal.page_decode_us", "us", "lower", 0},
	{"stablemem.append_ns_per_rec", "ns", "lower", 0},
	// core: SLB and sorter (C, P).
	{"core.slb_write_p50_ns", "ns", "lower", 0},
	{"core.epoch_chains_mean", "count", "higher", 0},
	{"core.epochs_per_ktxn", "count", "lower", 0},
	{"core.sort_rec_per_s", "1/s", "higher", 0},
	{"core.log_pages_per_ktxn", "count", "lower", 0},
	{"core.page_flush_p50_us", "us", "lower", 0},
	// core: checkpoints (C).
	{"core.ckpt_per_ktxn", "count", "lower", 0},
	{"core.ckpt_by_age_share", "%", "lower", 0},
	{"core.ckpt_p50_us", "us", "lower", 0},
	{"core.ckpt_bytes_per_txn", "B", "lower", 0},
	{"core.window_overruns", "count", "lower", 0},
	{"core.ckpt_backlog", "count", "lower", 0},
	// core: restart (C, T).
	{"core.restart_open_ms", "ms", "lower", 0},
	{"core.root_scan_us", "us", "lower", 0},
	{"core.part_recovery_p50_us", "us", "lower", 0},
	{"core.log_pages_read_per_restart", "count", "lower", 0},
	{"core.parts_recovered_per_restart", "count", "lower", 0},
	{"core.sweep_ms", "ms", "lower", 0},
	{"core.ttp99_ms", "ms", "lower", 0},
	{"core.epoch_rollbacks", "count", "lower", 0},
	// simdisk, archive, catalog, heat (P, C).
	{"simdisk.log_append_us_per_page", "us", "lower", 0},
	{"simdisk.track_write_us", "us", "lower", 0},
	{"simdisk.track_read_us", "us", "lower", 0},
	{"archive.append_us_per_page", "us", "lower", 0},
	{"archive.scan_part_us", "us", "lower", 0},
	{"archive.pages_per_ktxn", "count", "lower", 0},
	{"archive.segments", "count", "lower", 0},
	{"catalog.decode_root_us", "us", "lower", 0},
	{"catalog.decode_relation_us", "us", "lower", 0},
	{"heat.touch_ns", "ns", "lower", 0},
	{"heat.persists_per_ktxn", "count", "lower", 0},
	// server, proto, client (C, P, T).
	{"server.exec_p50_us", "us", "lower", 0},
	{"server.requests_per_flush", "count", "higher", 0},
	{"server.bytes_per_txn", "B", "lower", 0},
	{"proto.encode_req_ns", "ns", "lower", 0},
	{"proto.decode_req_ns", "ns", "lower", 0},
	{"proto.encode_resp_ns", "ns", "lower", 0},
	{"client.ping_rtt_us", "us", "lower", 0},
	{"server.wire_gap_us", "us", "lower", 0},
	// harness.
	{"harness.restart_first100_ms", "ms", "lower", 0},
	{"harness.spin_ms", "ms", "lower", 0},
	{"harness.spin_drift_pct", "%", "lower", 0},
	{"harness.round_cv", "%", "lower", 0},
	{"txn_p95_us", "us", "lower", 0},
	{"harness.txn_p99_us", "us", "lower", 0},
	{"harness.trace_overhead_pct", "%", "lower", 0},
	{"harness.cycles", "count", "higher", 0},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fill builds the reported set for defs from computed values; a missing
// value is a harness bug, reported as an error by the caller.
func fill(defs []metricDef, values map[string]float64) (map[string]metricValue, []string) {
	out := make(map[string]metricValue, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, missing
}
