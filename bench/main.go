// Command bench is the repository's performance ledger: four workloads
// (ingest, montecarlo, serve_hot, serve_cold) driven from a seed, with
// end-to-end metrics from untraced runs and per-layer metrics from a
// separate traced run. See README.md in this directory.
//
//	bench --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--out dir]
//	bench compare <dirA> <dirB>
//	bench spec
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return compareCmd(args[1:], stdout, stderr)
		case "spec":
			b, err := specJSON()
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			stdout.Write(b)
			return 0
		}
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: ingest, montecarlo, serve_hot, serve_cold, or all")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", runSeconds, "length of the timed section")
	trace := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	out := fs.String("out", filepath.Join("bench", "out"), "directory for results, traces and scratch files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: usage: bench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>")
		return 2
	}
	if *name == "all" {
		return runAll(ctx, *seed, *seconds, *out, stdout, stderr)
	}
	def, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	rep, err := runOne(ctx, def, runConfig{seed: *seed, seconds: *seconds, traced: *trace == 1, out: *out})
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := rep.print(stdout); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !rep.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload untraced and traced, each in a process of its
// own so that peak_rss_mb belongs to one workload.
func runAll(ctx context.Context, seed int64, seconds float64, out string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			cmd := exec.CommandContext(ctx, self, "--workload", w.Name, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace), "--out", out)
			cmd.Stdout, cmd.Stderr = stdout, stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "bench: %s trace=%d: %v\n", w.Name, trace, err)
				code = 1
			}
		}
	}
	return code
}

type runConfig struct {
	seed    int64
	seconds float64
	traced  bool
	out     string
	small   bool
}

// setupRepeats is how many times an untraced run sets the workload up;
// setup_s is the median.
const setupRepeats = 3

// noisyCanary is the relative change of the canary across a run beyond
// which the run is marked noisy.
const noisyCanary = 0.10

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one run produced; it is printed and stored.
type report struct {
	Workload   string                 `json:"workload"`
	Trace      int                    `json:"trace"`
	Seed       int64                  `json:"seed"`
	Seconds    float64                `json:"seconds"`
	NProc      int                    `json:"nproc"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	GoVersion  string                 `json:"go_version"`
	Commit     string                 `json:"commit"`
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Noisy      bool                   `json:"noisy"`
	CanaryMS   [2]float64             `json:"canary_ms"`
	Samples    map[string]int         `json:"samples"`
	RatePieces []float64              `json:"rate_pieces,omitempty"` // frames/s of each pass or tenth of the window
	TailPct    float64                `json:"tail_percentile,omitempty"`
	LatencyMS  map[string]float64     `json:"latency_ms,omitempty"` // more of the latency distribution than the two metrics
	Problems   []string               `json:"problems,omitempty"`
	Metrics    map[string]metricValue `json:"metrics"`
}

// result is the last line of standard output: the contract with the driver.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *report) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.Name == name {
			r.Metrics[name] = metricValue{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("bench: metric " + name + " is not in the ledger")
}

// print writes every metric by name with its unit, then the result line.
func (r *report) print(w io.Writer) error {
	fmt.Fprintf(w, "workload %s  trace %d  seed %d  seconds %g  nproc %d  GOMAXPROCS %d  %s  commit %s\n",
		r.Workload, r.Trace, r.Seed, r.Seconds, r.NProc, r.GOMAXPROCS, r.GoVersion, r.Commit)
	defs := endToEnd
	if r.Trace == 1 {
		defs = perLayer
	}
	for _, d := range defs {
		m := r.Metrics[d.Name]
		note := ""
		if d.Name == "bench.req_p99_ms" {
			note = fmt.Sprintf("  (p%.4g)", r.TailPct)
		}
		fmt.Fprintf(w, "  %-34s %14.6g %-9s%s\n", d.Name, m.Value, m.Unit, note)
	}
	keys := make([]string, 0, len(r.Samples))
	for k := range r.Samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if r.Trace == 0 {
		fmt.Fprintf(w, "  latency, not bounded: p90 %.6g ms, p%.4g %.6g ms, max %.6g ms\n", r.LatencyMS["p90"], r.TailPct, r.LatencyMS["tail"], r.LatencyMS["max"])
	}
	fmt.Fprint(w, "  samples:")
	for _, k := range keys {
		fmt.Fprintf(w, " %s=%d", k, r.Samples[k])
	}
	fmt.Fprintf(w, "\n  canary %.3f ms before, %.3f ms after; noisy=%v; attempted %d, failed %d, fail_ratio %g\n",
		r.CanaryMS[0], r.CanaryMS[1], r.Noisy, r.Attempted, r.Failed, ratio(float64(r.Failed), float64(r.Attempted)))
	for _, p := range r.Problems {
		fmt.Fprintln(w, "  PROBLEM:", p)
	}
	line, err := json.Marshal(result{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func (r *report) fileName() string {
	return fmt.Sprintf("result-%s-t%d-s%d.json", r.Workload, r.Trace, r.Seed)
}

func (r *report) store(dir string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, r.fileName()), append(b, '\n'), 0o644)
}

func loadReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// runOne runs one workload once, untraced or traced.
func runOne(ctx context.Context, def workloadDef, cfg runConfig) (*report, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(cfg.out, "tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	commit := os.Getenv("BENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	rep := &report{
		Workload: def.Name, Seed: cfg.seed, Seconds: cfg.seconds,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: commit,
		Samples: map[string]int{}, Metrics: map[string]metricValue{},
	}
	if cfg.traced {
		rep.Trace = 1
	}
	e := &env{seed: cfg.seed, seconds: cfg.seconds, nproc: runtime.GOMAXPROCS(0), dir: scratch, small: cfg.small}
	// The run sits between two canaries. A run during which the machine
	// changed speed is marked noisy; it is not made again (see README.md:
	// on the reference box the canary flips between two speeds for reasons
	// that do not show in the workloads, and the driver's time limit leaves
	// no room for making every third run twice).
	bursts := canaryBursts
	if cfg.small {
		bursts = 3
	}
	before := canaryMS(bursts)
	if cfg.traced {
		err = runTraced(ctx, def, e, rep, cfg.out)
	} else {
		err = runUntraced(ctx, def, e, rep)
	}
	if err != nil {
		return nil, err
	}
	after := canaryMS(bursts)
	rep.CanaryMS = [2]float64{before, after}
	rep.Noisy = math.Abs(after-before) > noisyCanary*math.Min(before, after)
	if cfg.traced {
		rep.set(perLayer, "bench.canary_ms", (rep.CanaryMS[0]+rep.CanaryMS[1])/2)
	}
	rep.Correct = rep.Failed == 0 && len(rep.Problems) == 0
	for name, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			rep.Correct = false
			rep.Problems = append(rep.Problems, fmt.Sprintf("metric %s is %v", name, m.Value))
			rep.Metrics[name] = metricValue{Unit: m.Unit}
		}
	}
	if err := rep.store(cfg.out); err != nil {
		return nil, err
	}
	return rep, nil
}

// runUntraced sets the workload up setupRepeats times and measures a share
// of --seconds after each set-up. That costs no more than measuring once
// after the last set-up, gives setup_s its median, spreads the measurement
// over the whole run (this box's speed drifts over tens of seconds), and
// lets every instance's outputs be checked against the first's: the same
// seed must give the same bytes.
func runUntraced(ctx context.Context, def workloadDef, e *env, rep *report) error {
	var (
		total   *outcome
		setups  []float64
		first   string
		section = *e
	)
	section.seconds = e.seconds / setupRepeats
	instance := func(i int) error {
		w := def.new()
		defer w.tearDown()
		t0 := time.Now()
		err := w.setUp(ctx, e)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		o, err := w.measure(ctx, &section)
		if err != nil {
			return err
		}
		rep.Problems = append(rep.Problems, w.verify(ctx, e, o)...)
		if fp := w.fingerprint(); i == 0 {
			first = fp
		} else if fp != first {
			rep.Problems = append(rep.Problems, fmt.Sprintf("set-up %d produced other outputs than set-up 0 from the same seed", i))
		}
		if total == nil {
			total = o
		} else {
			total.merge(o)
		}
		if i < setupRepeats-1 {
			return nil
		}
		d, err := w.cost(ctx, e)
		if err != nil {
			return err
		}
		rep.set(endToEnd, "cells_per_pixel", d.cellsPerPixel())
		rep.set(endToEnd, "archive_bytes_per_frame", d.bytesPerFrame())
		rep.set(endToEnd, "psnr_db", d.psnrDB())
		return nil
	}
	for i := 0; i < setupRepeats; i++ {
		if err := instance(i); err != nil {
			return fmt.Errorf("%s: %w", def.Name, err)
		}
	}
	rep.Attempted, rep.Failed = total.attempted, total.failed
	if len(total.lat) == 0 {
		return fmt.Errorf("%s: the timed sections completed no operation", def.Name)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	lat := summarize(total.lat)
	rep.TailPct = lat.TailPct
	rep.LatencyMS = lat.Quantiles
	rep.RatePieces = total.rates
	rep.Samples["setups"] = len(setups)
	rep.Samples["rate_pieces"] = len(total.rates)
	rep.Samples["latencies"] = lat.N
	rep.Samples["frames"] = int(total.frames)
	rep.set(endToEnd, "setup_s", median(setups))
	rep.set(endToEnd, "frames_per_s", total.framesPerS())
	rep.set(endToEnd, "peak_rss_mb", rss)
	rep.set(endToEnd, "req_p50_ms", lat.P50)
	return nil
}

// tracedShare is the part of --seconds each of the two loops of a traced
// run gets (the untraced reference loop and the traced loop); the rest of
// the run is the layer probes.
const tracedShare = 0.25

func runTraced(ctx context.Context, def workloadDef, e *env, rep *report, out string) error {
	tr := newTracer()
	e.tr = tr
	w := def.new()
	defer w.tearDown()
	if err := w.setUp(ctx, e); err != nil {
		return fmt.Errorf("%s set-up: %w", def.Name, err)
	}

	// The untraced loop first: the reference for the tracing overhead, the
	// source of the serve counters, and what the traced form must reproduce.
	short := *e
	short.tr, short.seconds = nil, e.seconds*tracedShare
	untr, err := w.measure(ctx, &short)
	if err != nil {
		return fmt.Errorf("%s: %w", def.Name, err)
	}
	rep.Problems = append(rep.Problems, w.verify(ctx, &short, untr)...)
	traced := *e
	traced.seconds = short.seconds
	tro, err := w.measure(ctx, &traced)
	if err != nil {
		return fmt.Errorf("%s traced: %w", def.Name, err)
	}
	rep.Problems = append(rep.Problems, w.verify(ctx, &traced, tro)...)
	rep.Attempted, rep.Failed = untr.attempted+tro.attempted, untr.failed+tro.failed
	if untr.attempted == 0 || tro.attempted == 0 {
		return fmt.Errorf("%s: a traced run's loop completed no operation", def.Name)
	}

	if err := probeLayers(ctx, e, w, untr, tro, rep); err != nil {
		return fmt.Errorf("%s layer probes: %w", def.Name, err)
	}
	lat := summarize(untr.lat)
	rep.TailPct = lat.TailPct
	rep.Samples["latencies"] = lat.N
	rep.set(perLayer, "bench.req_p99_ms", lat.Tail)
	rep.set(perLayer, "bench.trace_overhead_ratio",
		ratio(tro.elapsed.Seconds()/float64(tro.attempted), untr.elapsed.Seconds()/float64(untr.attempted)))

	path := filepath.Join(out, "trace-"+def.Name+".jsonl")
	if err := tr.write(path); err != nil {
		return err
	}
	if bad := checkTrace(tr); bad != "" {
		rep.Problems = append(rep.Problems, bad)
	}
	rep.Samples["spans"] = len(tr.spans)
	return nil
}

// checkTrace confirms the trace's own arithmetic: every span is closed and
// lasts exactly as long as its self time plus what its children cover.
func checkTrace(tr *tracer) string {
	spans := append([]span(nil), tr.spans...)
	selfTimes(spans)
	covered := map[int]int64{}
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Sprintf("trace: span %d (%s) was never closed", s.ID, s.Name)
		}
		if s.Parent != 0 {
			p := spans[s.Parent-1]
			if s.Start < p.Start || s.End > p.End {
				return fmt.Sprintf("trace: span %d (%s) is not inside its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
			}
			covered[s.Parent] += s.End - s.Start
		}
	}
	for _, s := range spans {
		if s.Self < 0 || s.Self+covered[s.ID] < s.End-s.Start {
			return fmt.Sprintf("trace: span %d (%s): self %d + children %d does not cover its %d ns", s.ID, s.Name, s.Self, covered[s.ID], s.End-s.Start)
		}
	}
	return ""
}

// probeLayers fills in every per-layer metric. What the workload's own
// traced loop measured stage by stage is used where it exists; every other
// layer is probed on a sample of the workload's own inputs.
func probeLayers(ctx context.Context, e *env, w workload, untr, tro *outcome, rep *report) error {
	c := w.inputs()
	set := func(name string, v float64) { rep.set(perLayer, name, v) }

	frames, d := 0, time.Duration(0)
	for _, s := range e.tr.spans {
		if s.Name == "synth.generate" {
			frames += s.Op
			d += time.Duration(s.End - s.Start)
		}
	}
	set("synth.generate_ms_per_frame", ratio(msOf(d), float64(frames)))

	sampleFrames := 96
	if e.small {
		sampleFrames = 12
	}
	sample := sampleVideos(c, sampleFrames)
	probe, err := probeWritePath(ctx, e, sample)
	if err != nil {
		return err
	}
	ws := tro.write
	if ws == nil {
		ws = probe
	}
	rep.Samples["write_frames"] = ws.frames
	set("codec.encode_ms_per_frame", ws.encode.msPer(ws.frames))
	set("codec.encode_allocs_per_frame", ws.encode.allocsPer(ws.frames))
	set("codec.encode_alloc_kb_per_frame", ws.encode.kbPer(ws.frames))
	set("codec.bits_per_pixel", ratio(float64(ws.payloadBits), float64(ws.pixels)))
	set("core.analyze_ms_per_frame", ws.analyze.msPer(ws.frames))
	set("core.analyze_share", ratio(ws.analyze.total.Seconds(), ws.encode.total.Seconds()))
	set("core.partition_ms_per_frame", ws.partition.msPer(ws.frames))
	set("store.footprint_ms_per_frame", ws.footprint.msPer(ws.frames))
	set("store.append_ms_per_chunk", ws.appendChunk.msPer(ws.chunks))

	// Pipelined against serial on the same sample.
	rate1, err := ingestRate(ctx, sample, 1)
	if err != nil {
		return err
	}
	rateN, err := ingestRate(ctx, sample, e.nproc)
	if err != nil {
		return err
	}
	set("chunk.overlap", probe.serialMSPerFrame()*rateN/1000)
	set("par.ingest_speedup", ratio(rateN, rate1))

	ts := tro.trips
	if ts == nil {
		if ts, err = probeRoundTrips(ctx, e, probe.units, 2); err != nil {
			return err
		}
	}
	rep.Samples["trips"] = ts.trips
	set("store.inject_ms_per_frame", ts.inject.msPer(ts.frames))
	set("store.inject_allocs_per_trip", ts.inject.allocsPer(ts.trips))
	set("codec.decode_clean_ms_per_frame", ts.decodeClean.msPer(ts.cleanFrames))
	set("codec.decode_damaged_ms_per_frame", ts.decodeDamaged.msPer(ts.damagedFrames))
	set("codec.decode_allocs_per_frame", ts.decodeClean.allocsPer(ts.cleanFrames))
	set("quality.psnr_ms_per_frame", ts.psnr.msPer(ts.frames))
	set("store.psnr_loss_db", ratio(ts.lossDB, float64(ts.paperTrips)))
	set("store.flips_per_mbit", ratio(float64(ts.flips), float64(ts.payloadBits)/1e6))
	trip1, err := tripRate(ctx, e, ts.units, 2, 1)
	if err != nil {
		return err
	}
	tripN, err := tripRate(ctx, e, ts.units, 2, e.nproc)
	if err != nil {
		return err
	}
	set("par.montecarlo_speedup", ratio(tripN, trip1))

	rp, err := probeReadPath(ctx, e, c)
	if err != nil {
		return err
	}
	rep.Samples["cold_chunks"] = rp.chunks
	rep.Samples["hot_requests"] = rp.hotRequests
	set("store.open_archive_ms", median(rp.open.each)/1000)
	set("store.readchunk_us", median(rp.readChunk.each))
	set("store.readchunk_allocs", rp.readChunk.allocsPer(rp.chunks))
	set("codec.decode_ms_per_chunk", median(rp.decode.each)/1000)
	set("codec.decode_allocs_per_chunk", rp.decode.allocsPer(rp.chunks))
	set("y4m.write_us_per_chunk", median(rp.render.each))
	set("serve.cold_overhead_us", median(rp.coldOverheadUS))
	set("serve.handler_hot_us", median(rp.handlerHot.each))
	set("serve.hot_allocs_per_req", rp.handlerHot.allocsPer(rp.hotRequests))
	set("serve.socket_overhead_us", rp.socketHotUS-median(rp.handlerHot.each))
	set("cache.getorload_hit_ns", rp.cacheHitNS)

	k, err := probeKernels(e)
	if err != nil {
		return err
	}
	set("predict.sad16_ns", k.sad16NS)
	set("predict.motion_search_us", k.motionSearchUS)
	set("transform.block_roundtrip_ns", k.blockRoundTripNS)
	set("entropy.cabac_enc_ns_per_bin", k.cabacEncNS)
	set("entropy.cabac_dec_ns_per_bin", k.cabacDecNS)
	set("sim.flip_ns_per_kbit", k.flipNSPerKbit)

	// The serve and cache layers' own counts over the untraced loop.
	n, reqs := untr.counts, float64(untr.attempted)
	rep.Samples["loop_operations"] = untr.attempted
	set("cache.hit_ratio", ratio(float64(n.hits), float64(n.hits+n.misses)))
	set("cache.evictions_per_req", ratio(float64(n.evictions), reqs))
	set("serve.decodes_per_req", ratio(float64(n.decodes), reqs))
	set("serve.prefetch_useful_ratio", ratio(float64(n.prefUseful), float64(n.prefIssued)))
	set("serve.prefetch_wasted_per_req", ratio(float64(n.prefWasted), reqs))
	set("serve.scan_frames_per_s", median(untr.scanRates))
	return nil
}
