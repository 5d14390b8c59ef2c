package main

// metricDef names one reported metric and its unit; BENCHMARK.json at
// the repository root lists the same names (a test keeps them in step).
type metricDef struct{ name, unit string }

// endToEnd is what an untraced run reports: figures a user of the
// system sees, each measured on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "ops/s"},
	{"user_mb_per_s", "MB/s"},
	{"write_p50_us", "us"},
	{"read_p50_us", "us"},
	{"live_heap_mb", "MB"},
}

// perLayer is what a traced run reports. A layer a workload does not
// cross reads 0 there. The first eight are user-visible figures that
// cannot be end-to-end metrics, taken from the traced run's untraced
// phase: tails that lack ten samples beyond the 99th percentile on the
// slower workloads, figures that exist on one workload only (propagation
// on control-plane, restart on object-rw, stored bytes on dedup-ingest),
// error_rate, which is 0 on a correct run and is also given by
// failed/attempted, and cpu_us_per_op, which on control-plane is mostly
// idle timer wakeups and moved by 35% with the neighbours' load between
// sets of runs on a shared host.
var perLayer = []metricDef{
	{"write_p99_us", "us"},
	{"read_p99_us", "us"},
	{"propagate_p50_ms", "ms"},
	{"propagate_p90_ms", "ms"},
	{"restart_s", "s"},
	{"stored_bytes_per_user_byte", "ratio"},
	{"error_rate", "ratio"},
	{"cpu_us_per_op", "us"},

	{"wire.calls_per_op", "count"},
	{"wire.sends_per_op", "count"},
	{"wire.client_max_inflight", "count"},
	{"wire.refused_per_op", "count"},
	{"wire.drops_per_op", "count"},

	{"rados.locate_ns", "ns"},
	{"rados.locate_allocs", "count"},
	{"rados.client_resends_per_op", "count"},
	{"rados.map_fetches_per_op", "count"},
	{"rados.write_us", "us"},
	{"rados.read_us", "us"},
	{"rados.call_us", "us"},
	{"rados.write_wal_share", "ratio"},

	{"wal.record_us", "us"},
	{"wal.records_per_op", "count"},
	{"wal.bytes_per_user_byte", "ratio"},
	{"wal.snapshot_record_share", "ratio"},
	{"wal.commit_us", "us"},
	{"wal.commits_per_sync", "ratio"},
	{"wal.checkpoint_us", "us"},
	{"wal.replay_s", "s"},
	{"wal.replay_records", "count"},

	{"osd.torn_bytes", "bytes"},
	{"osd.scrub_repairs", "count"},

	{"cdc.split_mb_per_s", "MB/s"},
	{"cdc.chunks_per_op", "count"},
	{"cdc.mean_chunk_bytes", "bytes"},
	{"dedup.blockname_mb_per_s", "MB/s"},
	{"dedup.new_block_ratio", "ratio"},
	{"dedup.calls_per_new_block", "count"},
	{"dedup.wire_bytes_per_user_byte", "ratio"},
	{"dedup.read_blocks_per_op", "count"},
	{"dedup.leaked_blocks", "count"},
	{"dedup.dangling_refs", "count"},

	{"zlog.class_calls_per_entry", "count"},
	{"zlog.seq_calls_per_entry", "count"},
	{"zlog.append_growth", "ratio"},
	{"zlog.append_cpu_growth", "ratio"},
	{"mds.local_grant_ratio", "ratio"},
	{"mds.remote_grants_per_entry", "count"},

	{"mon.commit_us", "us"},
	{"paxos.msgs_per_commit", "count"},
	{"mon.gossip_msgs_per_wave", "count"},
	{"mantle.decide_us", "us"},
	{"mantle.decide_allocs", "count"},

	{"go.allocs_per_op", "count"},
	{"go.alloc_bytes_per_op", "bytes"},
	{"go.gc_per_kop", "count"},
	{"trace.overhead", "ratio"},
}
