package main

// metricDef names one metric. BENCHMARK.json carries the same names and
// units plus direction and bound; a self-test keeps the two in step.
// span, when set, is the layer-walk span whose median duration is the
// metric's value.
type metricDef struct {
	name string
	unit string
	span string
}

// endToEnd is what a user of the platform sees. Every workload reports
// every one of them: from its window where the window carries that kind
// of traffic, from its cross-check otherwise.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "upload_stored_p50_ms", unit: "ms"},
	{name: "upload_stored_p95_ms", unit: "ms"},
	{name: "stored_per_s", unit: "1/s"},
	{name: "read_p95_ms", unit: "ms"},
	{name: "alloc_kb_per_op", unit: "KB"},
	{name: "disk_bytes_per_user_byte", unit: "ratio"},
	{name: "live_heap_mb", unit: "MB"},
}

// perLayer is one layer each, named by the layer as a prefix.
var perLayer = []metricDef{
	{name: "httpapi.guard_us", unit: "us", span: "httpapi.guard"},
	{name: "httpapi.socket_us", unit: "us"},
	{name: "httpapi.upload_handler_us", unit: "us", span: "httpapi.upload_handler"},
	{name: "httpapi.read_p50_ms", unit: "ms"},
	{name: "rbac.check_us", unit: "us", span: "rbac.check"},
	{name: "admission.admit_us", unit: "us", span: "admission.admit"},
	{name: "admission.rejected", unit: "count"},
	{name: "hckrypto.decrypt_us", unit: "us", span: "hckrypto.decrypt"},
	{name: "fhir.parse_us", unit: "us", span: "fhir.parse"},
	{name: "fhir.marshal_us", unit: "us", span: "fhir.marshal"},
	{name: "scan.scan_us", unit: "us", span: "scan.scan"},
	{name: "anonymize.deidentify_us", unit: "us", span: "anonymize.deidentify"},
	{name: "anonymize.verify_us", unit: "us", span: "anonymize.verify"},
	{name: "consent.check_us", unit: "us", span: "consent.check"},
	{name: "consent.flip_us", unit: "us", span: "consent.flip"},
	{name: "consent.request_p50_ms", unit: "ms"},
	{name: "ingest.ack_p50_ms", unit: "ms"},
	{name: "ingest.ack_p95_ms", unit: "ms"},
	{name: "ingest.residence_p50_ms", unit: "ms"},
	{name: "ingest.export_p50_ms", unit: "ms"},
	{name: "ingest.queue_depth_max", unit: "count"},
	{name: "ingest.retries", unit: "count"},
	{name: "ingest.dead_lettered", unit: "count"},
	{name: "bus.hop_us", unit: "us", span: "bus.hop"},
	{name: "shardlake.put_us", unit: "us", span: "shardlake.put"},
	{name: "shardlake.get_us", unit: "us", span: "shardlake.get"},
	{name: "shardlake.list_us", unit: "us", span: "shardlake.list"},
	{name: "shardlake.shard_skew", unit: "ratio"},
	{name: "shardlake.repairs", unit: "count"},
	{name: "durable.fsyncs_per_upload", unit: "count"},
	{name: "durable.appends_per_fsync", unit: "count"},
	{name: "durable.bytes_per_upload", unit: "B"},
	{name: "durable.sync_us", unit: "us"},
	{name: "ledger.submit_ms", unit: "ms", span: "ledger.submit"},
	{name: "ledger.endorse_us", unit: "us", span: "ledger.endorse"},
	{name: "ledger.mean_batch_size", unit: "count"},
	{name: "ledger.fallbacks", unit: "count"},
	{name: "ledger.block_cut_ms", unit: "ms"},
	{name: "ledger.tx_per_block", unit: "count"},
	{name: "ledger.channel_skew", unit: "ratio"},
	{name: "ledger.verify_ms", unit: "ms"},
	{name: "kbcache.hit_us", unit: "us", span: "kbcache.hit"},
	{name: "kbcache.miss_us", unit: "us", span: "kbcache.miss"},
	{name: "kbcache.hit_rate", unit: "ratio"},
	{name: "kb.origin_calls", unit: "count"},
	{name: "audit.find_us", unit: "us", span: "audit.find"},
	{name: "audit.events", unit: "count"},
	{name: "metering.bill_us", unit: "us", span: "metering.bill"},
	{name: "monitor.readyz_us", unit: "us", span: "monitor.readyz"},
	{name: "core.open_empty_s", unit: "s"},
	{name: "core.close_s", unit: "s"},
	{name: "core.reopen_s", unit: "s"},
	{name: "proc.cpu_ms_per_op", unit: "ms"},
	{name: "proc.gc_pause_ms", unit: "ms"},
	{name: "proc.goroutines_max", unit: "count"},
	{name: "bench.generator_lag_p95_ms", unit: "ms"},
	{name: "bench.trace_overhead_pct", unit: "%"},
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	return ""
}
