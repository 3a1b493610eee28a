package main

import (
	"encoding/json"
)

// metricDef describes one metric of the ledger. For an end-to-end metric
// Bound is the share of the parent's median by which it may get worse
// before a change is rejected. For a per-layer metric Moves names the
// end-to-end metric@workload it is predicted to move.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Moves  string
	What   string
}

// endToEnd lists what a user of the system sees. Every workload reports
// every one of them, and none is ever zero.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		What: "median wall time of one complete set-up (synth, encode/archive of the inputs, reference renders, server start, warm-up); three set-ups per run, a third of the timed work after each"},
	{Name: "frames_per_s", Unit: "frames/s", Better: "higher", Bound: 0.25,
		What: "frames fully processed per wall second: archived (ingest), injected+decoded+measured (montecarlo), delivered in verified 200 responses (serve_*); median over passes or tenths of the window"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20,
		What: "VmHWM of the run's process at exit"},
	{Name: "req_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		What: "median latency of one operation: one video archived (ingest), one round trip measured (montecarlo), one chunk request (serve_hot: all; serve_cold: the random readers')"},
	{Name: "cells_per_pixel", Unit: "cells/px", Better: "lower", Bound: 0.001,
		What: "storage cells per luma pixel of the workload's videos (the paper's Fig. 11 density axis); exact"},
	{Name: "archive_bytes_per_frame", Unit: "B/frame", Better: "lower", Bound: 0.001,
		What: "VACS bytes holding the workload's videos divided by their frames; exact"},
	{Name: "psnr_db", Unit: "dB", Better: "higher", Bound: 0.001,
		What: "PSNR against the source of the workload's stored videos decoded cleanly: archived chunks re-read (ingest), the processed videos (montecarlo), the served frames (serve_*); exact"},
}

// perLayer lists the metrics of single layers, taken in the traced run by
// spans around each layer's public calls. They have no bound; they are the
// evidence for where an end-to-end change comes from.
var perLayer = []metricDef{
	{Name: "synth.generate_ms_per_frame", Unit: "ms/frame", Better: "lower", Moves: "setup_s@all", What: "synth.Generate"},
	{Name: "codec.encode_ms_per_frame", Unit: "ms/frame", Better: "lower", Moves: "frames_per_s@ingest, setup_s@others", What: "codec.EncodeParallelContext at workers=1"},
	{Name: "codec.encode_allocs_per_frame", Unit: "count", Better: "lower", Moves: "frames_per_s, peak_rss_mb@ingest", What: "heap allocations of the same call"},
	{Name: "codec.encode_alloc_kb_per_frame", Unit: "KB/frame", Better: "lower", Moves: "peak_rss_mb@ingest", What: "heap bytes of the same call"},
	{Name: "codec.bits_per_pixel", Unit: "bits/px", Better: "lower", Moves: "cells_per_pixel, archive_bytes_per_frame@all", What: "payload bits the encoder emitted per luma pixel"},
	{Name: "core.analyze_ms_per_frame", Unit: "ms/frame", Better: "lower", Moves: "frames_per_s@ingest", What: "core.AnalyzeContext + CheckMonotone at workers=1"},
	{Name: "core.analyze_share", Unit: "ratio", Better: "lower", Moves: "frames_per_s@ingest", What: "analysis time over encode time (PAPER 4.3.1 reports this overhead)"},
	{Name: "core.partition_ms_per_frame", Unit: "ms/frame", Better: "lower", Moves: "frames_per_s@ingest", What: "Analysis.Partition"},
	{Name: "store.footprint_ms_per_frame", Unit: "ms/frame", Better: "lower", Moves: "frames_per_s@ingest", What: "System.FrameCosts, the per-chunk footprint call of the streaming path"},
	{Name: "store.append_ms_per_chunk", Unit: "ms/chunk", Better: "lower", Moves: "frames_per_s@ingest", What: "ChunkWriter.Append"},
	{Name: "chunk.overlap", Unit: "ratio", Better: "higher", Moves: "frames_per_s@ingest", What: "sum of serial stage ms/frame x pipelined frames/s / 1000 on the probe sample: 1 = no overlap, nproc = ideal"},
	{Name: "par.ingest_speedup", Unit: "ratio", Better: "higher", Moves: "frames_per_s@ingest", What: "StreamToArchive frames/s at workers=nproc over workers=1"},
	{Name: "par.montecarlo_speedup", Unit: "ratio", Better: "higher", Moves: "frames_per_s@montecarlo", What: "inject+decode+PSNR frames/s at workers=nproc over workers=1"},
	{Name: "predict.sad16_ns", Unit: "ns", Better: "lower", Moves: "codec.encode_ms_per_frame -> frames_per_s@ingest", What: "predict.SAD on a 16x16 block"},
	{Name: "predict.motion_search_us", Unit: "us", Better: "lower", Moves: "codec.encode_ms_per_frame -> frames_per_s@ingest", What: "predict.MotionSearch, 16x16, range 16"},
	{Name: "transform.block_roundtrip_ns", Unit: "ns", Better: "lower", Moves: "codec.encode_* @ingest, codec.decode_* @serve_cold,montecarlo", What: "transform.RoundTrip of one 4x4 block"},
	{Name: "entropy.cabac_enc_ns_per_bin", Unit: "ns", Better: "lower", Moves: "codec.encode_ms_per_frame -> frames_per_s@ingest", What: "Encoder.EncodeBit"},
	{Name: "entropy.cabac_dec_ns_per_bin", Unit: "ns", Better: "lower", Moves: "codec.decode_* -> frames_per_s@montecarlo, req_p50_ms@serve_cold", What: "Decoder.DecodeBit"},
	{Name: "store.inject_ms_per_frame", Unit: "ms/frame", Better: "lower", Moves: "frames_per_s@montecarlo", What: "System.StoreContext at workers=1"},
	{Name: "store.inject_allocs_per_trip", Unit: "count", Better: "lower", Moves: "frames_per_s, peak_rss_mb@montecarlo", What: "heap allocations of the same call"},
	{Name: "sim.flip_ns_per_kbit", Unit: "ns/kbit", Better: "lower", Moves: "store.inject_ms_per_frame -> frames_per_s@montecarlo", What: "sim.FlipIID at p=1e-3"},
	{Name: "codec.decode_clean_ms_per_frame", Unit: "ms/frame", Better: "lower", Moves: "frames_per_s@montecarlo, req_p50_ms@serve_cold", What: "codec.DecodeContext on undamaged videos at workers=1"},
	{Name: "codec.decode_damaged_ms_per_frame", Unit: "ms/frame", Better: "lower", Moves: "frames_per_s@montecarlo", What: "codec.DecodeContext after all-uncorrected injection"},
	{Name: "codec.decode_allocs_per_frame", Unit: "count", Better: "lower", Moves: "frames_per_s@montecarlo, peak_rss_mb@serve_cold", What: "heap allocations of the clean decode"},
	{Name: "quality.psnr_ms_per_frame", Unit: "ms/frame", Better: "lower", Moves: "frames_per_s@montecarlo", What: "quality.PSNRContext at workers=1"},
	{Name: "store.psnr_loss_db", Unit: "dB", Better: "lower", Moves: "none end to end: the paper's quality claim", What: "mean clean PSNR - round-trip PSNR over the PaperAssignment trips (the paper's <0.3 dB claim); exact for a seed"},
	{Name: "store.flips_per_mbit", Unit: "1/Mbit", Better: "lower", Moves: "store.psnr_loss_db", What: "residual flips per stored payload Mbit over all trips; exact for a seed"},
	{Name: "store.open_archive_ms", Unit: "ms", Better: "lower", Moves: "setup_s@serve_*", What: "OpenFileBackend + OpenArchiveBackend"},
	{Name: "store.readchunk_us", Unit: "us", Better: "lower", Moves: "req_p50_ms, req_p99_ms@serve_cold", What: "ChunkArchive.ReadChunkContext, median per chunk"},
	{Name: "store.readchunk_allocs", Unit: "count", Better: "lower", Moves: "req_p50_ms, peak_rss_mb@serve_cold", What: "heap allocations per chunk read"},
	{Name: "codec.decode_ms_per_chunk", Unit: "ms", Better: "lower", Moves: "req_p50_ms, frames_per_s@serve_cold", What: "codec.DecodeContext of one archived chunk, as the server decodes it"},
	{Name: "codec.decode_allocs_per_chunk", Unit: "count", Better: "lower", Moves: "req_p50_ms, peak_rss_mb@serve_cold", What: "heap allocations of the same call"},
	{Name: "y4m.write_us_per_chunk", Unit: "us", Better: "lower", Moves: "req_p50_ms@serve_cold", What: "y4m.Write into a pre-grown buffer"},
	{Name: "serve.cold_overhead_us", Unit: "us", Better: "lower", Moves: "req_p50_ms@serve_cold", What: "Handler().ServeHTTP miss on a fresh catalog minus the same chunk's read + decode + render, median over chunks"},
	{Name: "serve.handler_hot_us", Unit: "us", Better: "lower", Moves: "req_p50_ms, frames_per_s@serve_hot", What: "Handler().ServeHTTP on a resident chunk into a discarding writer"},
	{Name: "serve.hot_allocs_per_req", Unit: "count", Better: "lower", Moves: "req_p50_ms@serve_hot", What: "heap allocations of the same call"},
	{Name: "serve.socket_overhead_us", Unit: "us", Better: "lower", Moves: "req_p50_ms@serve_hot", What: "median resident-chunk GET over TCP minus serve.handler_hot_us"},
	{Name: "cache.getorload_hit_ns", Unit: "ns", Better: "lower", Moves: "req_p50_ms@serve_hot", What: "cache.Space.GetOrLoad on a resident key, catalog shard configuration"},
	{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher", Moves: "frames_per_s@serve_*", What: "cache hits over lookups during the untraced loop (0 on pipeline workloads: no requests)"},
	{Name: "cache.evictions_per_req", Unit: "ratio", Better: "lower", Moves: "req_p50_ms@serve_cold", What: "evictions per request during the untraced loop"},
	{Name: "serve.decodes_per_req", Unit: "ratio", Better: "lower", Moves: "frames_per_s@serve_cold", What: "chunk decodes (readahead included) per request; 0 on serve_hot"},
	{Name: "serve.prefetch_useful_ratio", Unit: "ratio", Better: "higher", Moves: "serve.scan_frames_per_s@serve_cold", What: "readahead loads later served to a client over loads issued"},
	{Name: "serve.prefetch_wasted_per_req", Unit: "ratio", Better: "lower", Moves: "req_p50_ms@serve_cold", What: "readahead loads evicted unused, per request"},
	{Name: "serve.scan_frames_per_s", Unit: "frames/s", Better: "higher", Moves: "frames_per_s@serve_cold", What: "frames delivered to the scanning clients only (0 where no client scans)"},
	{Name: "bench.req_p99_ms", Unit: "ms", Better: "lower", Moves: "none: reported, not bounded", What: "tail latency of the untraced loop's operations: the highest percentile with at least ten samples beyond it, capped at p99 (the percentile used is printed). Demoted from the end-to-end list: on the reference box it does not repeat within 25%"},
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "lower", Moves: "none: instrument check", What: "wall time per operation of the traced form over the untraced form"},
	{Name: "bench.canary_ms", Unit: "ms", Better: "lower", Moves: "none: machine noise", What: "fixed pure-stdlib CPU loop, mean of before and after"},
}

// runSeconds is how long the driver lets one run measure.
const runSeconds = 20

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// benchmarkSpec is the BENCHMARK.json contract.
type benchmarkSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

// spec builds BENCHMARK.json from the tables above, so the file at the
// root of the repository and the program cannot drift apart unnoticed (a
// self-test compares them).
func spec() benchmarkSpec {
	s := benchmarkSpec{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		s.Workloads = append(s.Workloads, specWorkload{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		bound := m.Bound
		s.EndToEnd = append(s.EndToEnd, specMetric{m.Name, m.Unit, m.Better, &bound})
	}
	for _, m := range perLayer {
		s.PerLayer = append(s.PerLayer, specMetric{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	return s
}

func specJSON() ([]byte, error) {
	b, err := json.MarshalIndent(spec(), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
