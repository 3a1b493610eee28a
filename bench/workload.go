package main

import (
	"context"
	"fmt"
	"time"
)

// workload is one named set of inputs and the loop that drives the program
// with them. A value is used for one set-up: setUp, then any number of
// measure calls, then tearDown.
type workload interface {
	// setUp makes the inputs from the seed and brings the program to the
	// state the timed section starts from (inputs encoded and archived,
	// server up, caches warm). Its wall time is setup_s.
	setUp(ctx context.Context, e *env) error
	// measure runs the timed section for about e.seconds. With e.tr set it
	// runs the traced form: pipeline workloads execute the same inputs
	// stage by stage through each layer's public calls, serve workloads
	// wrap every client request in a span.
	measure(ctx context.Context, e *env) (*outcome, error)
	// verify checks the outputs of the measured section against references
	// the benchmark built itself and returns one line per broken check.
	verify(ctx context.Context, e *env, o *outcome) []string
	// fingerprint digests the outputs that a seed fully determines (archive
	// bytes, flip counts and PSNR bits, reference renders). A run sets a
	// workload up several times; every instance must report the same one.
	fingerprint() string
	// cost reports the storage cost and quality of the videos handled.
	cost(ctx context.Context, e *env) (*density, error)
	// inputs returns what set-up left behind, for the layer probes.
	inputs() *corpus
	tearDown()
}

// workloadDef names a workload, says why it exists, and builds it.
type workloadDef struct {
	Name string
	Why  string
	new  func() workload
}

var workloads = []workloadDef{
	{"ingest", "write path: codec encode dominates, then core analysis and store append; varies content, quality target and entropy coder; serve, cache and decode are bypassed",
		func() workload { return &ingestWorkload{} }},
	{"montecarlo", "the paper's 6.4 loop, one serial client per CPU: store error injection, codec decode of damaged streams and quality PSNR; the encoder and serve are bypassed",
		func() workload { return &monteCarloWorkload{} }},
	{"serve_hot", "cache-resident reads over real TCP: serve handler, cache hit and socket copy; store and codec are bypassed, so a cold-path change must not move it",
		func() workload { return &serveWorkload{hot: true} }},
	{"serve_cold", "working set 4x the cache: archive read, decode and y4m render dominate; one scanning client (readahead useful) beside one random reader (readahead wasted)",
		func() workload { return &serveWorkload{} }},
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// outcome is what one measured section did.
type outcome struct {
	attempted int
	failed    int
	frames    int64         // frames fully processed by successful operations
	elapsed   time.Duration // wall time measured
	// rates holds frames per second of each equal piece of the section: a
	// whole pass over the fixed inputs for the pipeline workloads, a tenth
	// of the window for the serve workloads. frames_per_s is their median,
	// so one disturbed piece does not move it.
	rates []float64
	// lat holds the latency in ms of every successful operation that counts
	// toward req_p50_ms and req_p99_ms.
	lat []float64
	// serve workloads only
	scanRates []float64
	counts    serveCounts
	// what the traced form of a pipeline workload saw stage by stage
	write *writeStages
	trips *tripStages
	// what verify needs, set by measure
	check any
}

func (o *outcome) framesPerS() float64 { return median(o.rates) }

// merge folds a later section of the same run into o.
func (o *outcome) merge(b *outcome) {
	o.attempted += b.attempted
	o.failed += b.failed
	o.frames += b.frames
	o.elapsed += b.elapsed
	o.rates = append(o.rates, b.rates...)
	o.lat = append(o.lat, b.lat...)
}

// morePasses decides whether a pipeline workload runs another pass over its
// fixed inputs: it stops at the whole number of passes closest to the
// target length.
func morePasses(elapsed time.Duration, passes int, seconds float64) bool {
	if passes == 0 {
		return true
	}
	return (elapsed + elapsed/time.Duration(2*passes)).Seconds() < seconds
}

// serveCounts are the serve and cache layers' own counters over a section.
type serveCounts struct {
	hits, misses, loads, evictions     int64
	decodes                            int64
	prefIssued, prefUseful, prefWasted int64
}

func (a serveCounts) minus(b serveCounts) serveCounts {
	return serveCounts{
		hits: a.hits - b.hits, misses: a.misses - b.misses, loads: a.loads - b.loads, evictions: a.evictions - b.evictions,
		decodes:    a.decodes - b.decodes,
		prefIssued: a.prefIssued - b.prefIssued, prefUseful: a.prefUseful - b.prefUseful, prefWasted: a.prefWasted - b.prefWasted,
	}
}

// ratio divides, reading an empty denominator as "nothing happened".
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
