package service

import (
	"bytes"
	"math"
	"sort"
	"strconv"
)

// Prometheus text exposition (version 0.0.4) rendered from the same
// MetricsSnapshot the JSON document serves — one snapshot, two formats,
// so a scrape and a JSON read within the same instant reconcile by
// construction. GET /metrics?format=prom returns this view.
//
// Naming: every series carries the suu_ prefix. Monotonic counters keep
// their JSON names (suu_plans_total); latency histograms become summaries
// with quantile labels plus _sum/_count, in seconds; stage attribution is
// one summary family suu_stage_seconds{stage="..."} — the family whose
// per-stage _sum lines reconcile against the endpoint summaries' _sum
// within one scrape.

// promWriter accumulates exposition lines with the small amount of
// formatting discipline the format demands (HELP/TYPE before the first
// sample of a family, no NaN for absent quantiles).
type promWriter struct {
	buf *bytes.Buffer
}

func (pw *promWriter) header(name, help, typ string) {
	pw.buf.WriteString("# HELP ")
	pw.buf.WriteString(name)
	pw.buf.WriteByte(' ')
	pw.buf.WriteString(help)
	pw.buf.WriteString("\n# TYPE ")
	pw.buf.WriteString(name)
	pw.buf.WriteByte(' ')
	pw.buf.WriteString(typ)
	pw.buf.WriteByte('\n')
}

func (pw *promWriter) sample(name, labels string, v float64) {
	pw.buf.WriteString(name)
	if labels != "" {
		pw.buf.WriteByte('{')
		pw.buf.WriteString(labels)
		pw.buf.WriteByte('}')
	}
	pw.buf.WriteByte(' ')
	if math.IsInf(v, 1) {
		pw.buf.WriteString("+Inf")
	} else {
		pw.buf.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	}
	pw.buf.WriteByte('\n')
}

func (pw *promWriter) counter(name, help string, v uint64) {
	pw.header(name, help, "counter")
	pw.sample(name, "", float64(v))
}

func (pw *promWriter) gauge(name, help string, v float64) {
	pw.header(name, help, "gauge")
	pw.sample(name, "", v)
}

// summary emits one latency snapshot as a summary family. Labels (may be
// empty) are applied to every line including _sum and _count, so a
// labeled family (stages) stays one TYPE declaration.
func (pw *promWriter) summaryBody(name, labels string, l LatencySnapshot) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	pw.sample(name, labels+sep+`quantile="0.5"`, l.P50)
	pw.sample(name, labels+sep+`quantile="0.95"`, l.P95)
	pw.sample(name, labels+sep+`quantile="0.99"`, l.P99)
	pw.sample(name+"_sum", labels, l.Sum)
	pw.sample(name+"_count", labels, float64(l.Count))
}

func (pw *promWriter) summary(name, help string, l LatencySnapshot) {
	pw.header(name, help, "summary")
	pw.summaryBody(name, "", l)
}

// promMetrics renders the snapshot as Prometheus exposition text.
func promMetrics(sn MetricsSnapshot) []byte {
	buf := getBuf()
	defer putBuf(buf)
	pw := &promWriter{buf: buf}

	pw.gauge("suu_uptime_seconds", "Seconds since the planner started.", sn.UptimeSeconds)
	pw.counter("suu_plans_total", "Single plan requests served.", sn.Plans)
	pw.counter("suu_estimates_total", "Estimate requests served.", sn.Estimates)
	pw.counter("suu_batches_total", "Batch requests served.", sn.Batches)
	pw.counter("suu_errors_total", "Requests that failed.", sn.Errors)
	pw.counter("suu_canceled_total", "Requests abandoned by their clients.", sn.Canceled)
	pw.counter("suu_rejected_total", "Requests refused by admission control.", sn.Rejected)
	pw.counter("suu_coalesced_total", "Requests served off shared in-flight work.", sn.Coalesced)
	pw.gauge("suu_in_flight", "Requests currently being served.", float64(sn.InFlight))
	pw.counter("suu_degraded_total", "Brownout fallback plans served.", sn.Degraded)
	pw.counter("suu_deadline_abandoned_total", "Computations abandoned at their deadline.", sn.Abandoned)
	pw.counter("suu_retries_observed_total", "Requests confessing to being retries.", sn.RetriesSeen)
	pw.counter("suu_cache_hits_total", "Response LRU hits of admitted requests and batch items.", sn.CacheHits)
	pw.counter("suu_cache_misses_total", "Response LRU misses of admitted requests and batch items.", sn.CacheMisses)
	pw.gauge("suu_cache_hit_rate", "Cache plus coalesced hit fraction.", sn.CacheHitRate)
	pw.gauge("suu_cache_entries", "Response LRU resident entries.", float64(sn.CacheEntries))
	pw.counter("suu_batch_items_total", "Batch items across all batches.", sn.BatchItems)
	pw.counter("suu_batch_items_cached_total", "Batch items served from cache.", sn.BatchCached)
	pw.counter("suu_batch_items_computed_total", "Batch items computed fresh.", sn.BatchComputed)
	pw.counter("suu_batch_items_coalesced_total", "Batch items served off shared work.", sn.BatchShared)
	pw.counter("suu_batch_items_degraded_total", "Batch items served degraded.", sn.BatchDegraded)
	pw.counter("suu_batch_item_errors_total", "Batch items that failed.", sn.BatchErrors)
	pw.gauge("suu_retry_after_hint_seconds", "Current adaptive Retry-After hint.", sn.RetryAfterS)

	pw.counter("suu_payload_bytes_encoded_cache_total", "Payload bytes served by splicing pre-encoded frames.", sn.PayloadBytes.EncodedCache)
	pw.counter("suu_payload_bytes_cold_encode_total", "Payload bytes served from this request's own encode.", sn.PayloadBytes.ColdEncode)
	pw.counter("suu_frames_spliced_total", "Payloads served zero-copy from a cached frame.", sn.FramesSpliced)
	pw.counter("suu_cold_encodes_total", "Payloads that ran json.Marshal.", sn.ColdEncodes)
	pw.counter("suu_instance_decode_hits_total", "Request instances resolved from the decode cache.", sn.DecodeHits)
	pw.counter("suu_instance_decode_misses_total", "Request instances decoded from JSON.", sn.DecodeMisses)
	pw.counter("suu_lp1_cache_hits_total", "LP1 rounding lookups served from the shared memo.", sn.LP1CacheHits)
	pw.counter("suu_lp1_cache_misses_total", "LP1 rounding lookups that solved the LP.", sn.LP1CacheMisses)
	pw.counter("suu_lp1_cache_evictions_total", "LP1 memo entries evicted to stay within budget.", sn.LP1CacheEvictions)
	pw.gauge("suu_lp1_cache_entries", "LP1 memo resident entries.", float64(sn.LP1CacheEntries))
	pw.gauge("suu_lp1_cache_bytes", "LP1 memo charged bytes.", float64(sn.LP1CacheBytes))
	pw.gauge("suu_lp1_cache_budget_bytes", "LP1 memo byte budget.", float64(sn.LP1CacheBudget))

	pw.counter("suu_plans_computed_total", "Plans computed by the engines (no tier served them).", sn.PlansComputed)
	pw.counter("suu_store_mem_hits_total", "Durable store memory-tier hits.", sn.StoreMemHits)
	pw.counter("suu_store_disk_hits_total", "Durable store disk-tier hits.", sn.StoreDiskHits)
	pw.counter("suu_store_peer_hits_total", "Durable store peer-fetch hits.", sn.StorePeerHits)
	pw.counter("suu_store_misses_total", "Store lookups no tier could serve.", sn.StoreMisses)
	pw.counter("suu_store_put_errors_total", "Store writes that failed.", sn.StorePutErrors)
	pw.gauge("suu_store_entries", "Durable store resident entries.", float64(sn.StoreEntries))
	pw.counter("suu_store_corrupt_dropped_total", "Corrupt store records quarantined.", sn.StoreCorrupt)
	pw.counter("suu_store_handoff_queued_total", "Hinted handoffs queued for down peers.", sn.StoreHandoffQueued)
	pw.counter("suu_store_handoff_drained_total", "Hinted handoffs delivered.", sn.StoreHandoffDrain)
	pw.counter("suu_store_handoff_dropped_total", "Hinted handoffs dropped.", sn.StoreHandoffDrop)
	pw.counter("suu_store_anti_entropy_pulled_total", "Records pulled by startup anti-entropy.", sn.StoreAntiEntropy)

	pw.summary("suu_plan_latency_seconds", "Single plan request latency.", sn.PlanLatency)
	pw.summary("suu_estimate_latency_seconds", "Estimate request latency.", sn.EstLatency)
	pw.summary("suu_batch_latency_seconds", "Batch request latency.", sn.BatchLatency)

	if len(sn.Stages) > 0 {
		names := make([]string, 0, len(sn.Stages))
		for name := range sn.Stages {
			names = append(names, name)
		}
		sort.Strings(names)
		pw.header("suu_stage_seconds", "Per-stage latency attribution across all requests.", "summary")
		for _, name := range names {
			pw.summaryBody("suu_stage_seconds", `stage="`+name+`"`, sn.Stages[name])
		}
	}
	if sn.Traced > 0 {
		pw.counter("suu_traced_total", "Requests that carried a trace context.", sn.Traced)
		pw.counter("suu_trace_sampled_total", "Traced requests kept by head sampling.", sn.TraceSampled)
		pw.counter("suu_trace_forced_total", "Traces force-kept (errors, degraded).", sn.TraceForced)
		pw.counter("suu_trace_ring_kept_total", "Traces stored in the debug ring.", sn.TraceRingKept)
		pw.counter("suu_trace_slow_kept_total", "Traces kept in the slowest-N list.", sn.TraceSlowKept)
		pw.counter("suu_trace_log_records_total", "Records written to the binary trace log.", sn.TraceLogRecords)
		pw.counter("suu_trace_log_bytes_total", "Bytes written to the binary trace log.", sn.TraceLogBytes)
	}

	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	return out
}
