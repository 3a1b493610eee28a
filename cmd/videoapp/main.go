// Command videoapp is the approximate-video-storage pipeline tool: it
// encodes raw (.y4m or synthetic) video into the container format, analyzes
// bit-level importance, partitions frames into reliability classes, computes
// the MLC storage footprint, and simulates storage round trips.
//
// Usage:
//
//	videoapp [flags] gen                 write a synthetic sequence as .y4m
//	videoapp [flags] encode              raw video -> .vapp container
//	videoapp [flags] info                summarize a .vapp container
//	videoapp [flags] analyze             importance pivots per frame
//	videoapp [flags] store               storage footprint + round trip
//	videoapp [flags] decode              .vapp -> .y4m
//	videoapp [flags] heatmap             per-MB importance map -> .pgm image
//	videoapp [flags] archive             stream raw video -> chunked .vacs archive
//	videoapp [flags] chunk               random-access round trip of one archived chunk
//	videoapp [flags] serve               HTTP chunk server over one .vacs archive or a directory of them
//	videoapp [flags] scrub               verify (and repair from -mirror) a .vacs archive
//	videoapp presets                     list synthetic presets
//
// Flags precede the command; anything after it is rejected. Input is
// -in FILE (.y4m or .vapp as appropriate) or, when -in is omitted, the
// synthetic -preset at -w/-h/-frames. The commands that read a .vacs archive
// (chunk, scrub, serve) name it with -archive FILE.
//
// The archive command always streams: frames are pulled from the input one
// closed-GOP chunk (-chunk-gops) at a time and appended to the archive as
// they finish, so peak memory is bounded by the chunk size, not the video
// length.
//
// The serve command exposes archives to concurrent clients as a catalog:
//
//	videoapp -archive x.vacs -addr :8080 serve
//	videoapp -archive-dir /data/archives -addr :8080 serve
//
// Every archive — the one -archive file, or every *.vacs file of
// -archive-dir — is served under its basename on /v1/archives/{name} (the
// routes, the shared cache, readahead and /metrics are those of package
// internal/serve). A single -archive is indexed once before the port opens,
// so a missing or corrupt file exits 1 instead of serving errors. Ctrl-C
// drains in-flight connections before exiting; SIGHUP rescans -archive-dir
// without a restart: new files are added to the catalog and vanished ones
// removed, while untouched archives keep serving.
//
// The archive read path (serve, chunk, scrub) is fault-tolerant:
// -read-retries and -breaker-threshold tune the retry/shed policy,
// -mirror FILE attaches a second copy for transparent recovery and scrub
// repair, and -fault-profile "seed=N,transient=P,corrupt=P,short=P"
// injects deterministic faults into the primary for testing (see the
// internal/faultio package documentation for the spec grammar).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/signal"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"videoapp"
	"videoapp/internal/faultio"
	"videoapp/internal/y4m"
)

type options struct {
	in, out              string
	preset               string
	w, h, frames         int
	crf, gop             int
	bframes, slices      int
	entropy              string
	halfpel, deblock     bool
	seed                 int64
	workers              int
	chunkGops, chunkIdx  int
	metrics              bool
	cpuprofile, traceOut string
	archive, archiveDir  string
	addr                 string
	cacheMB              int
	prefetch             int
	reqTimeout, idleTime time.Duration

	// Fault-tolerance knobs of the archive read path (serve/chunk/scrub);
	// faults is -fault-profile parsed, nil without one.
	faults           *faultio.Profile
	mirror           string
	readRetries      int
	breakerThreshold int

	// trace streams JSON events when -trace-out is set. instrumentedRun
	// attaches it (and the -metrics aggregator) to the run's context, the one
	// route by which every stage call reports; it is kept here only for the
	// serve command, whose catalog publishes its events to an observer of
	// its own (WithServeObserver).
	trace *videoapp.Trace
}

func main() { os.Exit(cliMain(os.Args[1:], os.Stderr)) }

// cliMain is the testable body of main: it parses args, validates the
// flag set against the selected command, and runs it. Exit status 2 means
// the command line itself was rejected (flag parse or validation); 1 means
// the command ran and failed.
func cliMain(args []string, stderr io.Writer) int {
	var o options
	var faultProfile string
	fs := flag.NewFlagSet("videoapp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.in, "in", "", "input file (.y4m for encode/gen reference, .vapp for info/analyze/store/decode)")
	fs.StringVar(&o.out, "o", "", "output file")
	fs.StringVar(&o.preset, "preset", "crew_like", "synthetic preset when -in is omitted")
	fs.IntVar(&o.w, "w", 320, "synthetic frame width")
	fs.IntVar(&o.h, "h", 176, "synthetic frame height")
	fs.IntVar(&o.frames, "frames", 60, "synthetic frame count")
	fs.IntVar(&o.crf, "crf", 24, "quality target (16=very high, 20=high, 24=standard)")
	fs.IntVar(&o.gop, "gop", 30, "I-frame interval")
	fs.IntVar(&o.bframes, "bframes", 0, "B frames between anchors")
	fs.IntVar(&o.slices, "slices", 1, "slices per frame")
	fs.StringVar(&o.entropy, "entropy", "cabac", "entropy coder: cabac or cavlc")
	fs.BoolVar(&o.halfpel, "halfpel", false, "half-pel motion compensation")
	fs.BoolVar(&o.deblock, "deblock", false, "in-loop deblocking filter")
	fs.Int64Var(&o.seed, "seed", 1, "storage round-trip seed")
	fs.IntVar(&o.workers, "workers", 0, "worker goroutines per pipeline stage (0 = GOMAXPROCS)")
	fs.IntVar(&o.chunkGops, "chunk-gops", 1, "closed GOPs per streaming chunk (archive granularity)")
	fs.IntVar(&o.chunkIdx, "chunk", 0, "chunk index for the chunk command")
	fs.BoolVar(&o.metrics, "metrics", false, "print per-stage wall time and pipeline counters (human + JSON)")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile to FILE; samples carry stage= pprof labels")
	fs.StringVar(&o.traceOut, "trace-out", "", "stream pipeline events to FILE as JSON lines")
	fs.StringVar(&o.archive, "archive", "", "chunk, scrub, serve: the .vacs archive to read")
	fs.StringVar(&o.archiveDir, "archive-dir", "", "serve: directory of *.vacs archives to serve as a catalog (SIGHUP rescans)")
	fs.StringVar(&o.addr, "addr", ":8080", "serve: listen address")
	fs.IntVar(&o.cacheMB, "cache-mb", 64, "serve: cache budget in MiB; bounds all decoded state: renderings and parse records")
	fs.IntVar(&o.prefetch, "prefetch", 2, "serve: readahead up to this many chunks ahead of a sequential reader (0 disables)")
	fs.DurationVar(&o.reqTimeout, "req-timeout", 30*time.Second, "serve: per-request timeout, decode included")
	fs.DurationVar(&o.idleTime, "idle-timeout", 0, "serve: close archives unused this long (0 = never)")
	fs.StringVar(&faultProfile, "fault-profile", "", "inject deterministic faults into archive reads: \"seed=N,transient=P,corrupt=P,short=P,latency=D\"")
	fs.StringVar(&o.mirror, "mirror", "", "second copy of the archive for read recovery and scrub repair")
	fs.IntVar(&o.readRetries, "read-retries", 0, "archive read retries after the first failure (0 = default of 2, negative disables)")
	fs.IntVar(&o.breakerThreshold, "breaker-threshold", 0, "consecutive hard read failures that open the serve circuit breaker (0 = default of 8, negative disables)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if faultProfile != "" {
		prof, err := faultio.ParseProfile(faultProfile)
		if err != nil {
			fmt.Fprintf(stderr, "videoapp: -fault-profile: %v\n", err)
			return 2
		}
		o.faults = &prof
	}
	cmd := fs.Arg(0)
	if cmd == "" {
		cmd = "store"
	}
	if fs.NArg() > 1 {
		// flag stops at the command, so a flag behind it would be ignored.
		fmt.Fprintf(stderr, "videoapp: unexpected arguments after the %s command: %s (flags precede the command)\n", cmd, strings.Join(fs.Args()[1:], " "))
		return 2
	}
	if err := o.validate(cmd); err != nil {
		fmt.Fprintf(stderr, "videoapp: %v\n", err)
		return 2
	}
	c, ok := commands[cmd]
	if !ok {
		fmt.Fprintf(stderr, "videoapp: unknown command %q (want %s)\n", cmd, strings.Join(slices.Sorted(maps.Keys(commands)), "|"))
		return 1
	}
	// Ctrl-C cancels the pipeline cooperatively at the next frame boundary.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := instrumentedRun(ctx, c.run, o); err != nil {
		fmt.Fprintf(stderr, "videoapp: %v\n", err)
		return 1
	}
	return 0
}

// instrumentedRun wires the observability flags around run: the CPU profile
// brackets the whole command, the observer (metrics aggregator and/or JSON
// trace) rides the context into every pipeline stage, and the -metrics
// report prints once the command finishes.
func instrumentedRun(ctx context.Context, run func(context.Context, options) error, o options) error {
	if o.cpuprofile != "" {
		f, err := os.Create(o.cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	var observers []videoapp.Observer
	var mtr *videoapp.Metrics
	if o.metrics {
		mtr = videoapp.NewMetrics()
		observers = append(observers, mtr)
	}
	if o.traceOut != "" {
		f, err := os.Create(o.traceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		o.trace = videoapp.NewTrace(f)
		observers = append(observers, o.trace)
	}
	ctx = videoapp.ContextWithObserver(ctx, videoapp.MultiObserver(observers...))

	err := run(ctx, o)

	if o.trace != nil && err == nil {
		err = o.trace.Err()
	}
	if mtr != nil {
		snap := mtr.Snapshot()
		fmt.Println("-- metrics --")
		if werr := snap.WriteText(os.Stdout); werr != nil && err == nil {
			err = werr
		}
		if js, jerr := snap.JSON(); jerr == nil {
			fmt.Printf("%s\n", js)
		} else if err == nil {
			err = jerr
		}
	}
	return err
}

// validate rejects flag values that would otherwise surface as a confusing
// failure (or a silent fallback) deep inside the pipeline, plus flag/command
// combinations that contradict each other.
func (o options) validate(cmd string) error {
	if c := commands[cmd]; c.requires != "" && c.input(o) == "" {
		return fmt.Errorf("the %s command requires %s", cmd, c.requires)
	}
	if o.archiveDir != "" {
		switch {
		case cmd != "serve":
			return fmt.Errorf("-archive-dir only applies to the serve command")
		case o.archive != "":
			return fmt.Errorf("-archive-dir conflicts with -archive (serve one archive or a directory, not both)")
		case o.mirror != "":
			return fmt.Errorf("-mirror attaches to a single archive and conflicts with -archive-dir")
		}
	}
	if o.idleTime < 0 {
		return fmt.Errorf("-idle-timeout %v must be >= 0", o.idleTime)
	}
	if o.workers < 0 {
		return fmt.Errorf("-workers %d is negative (0 selects GOMAXPROCS)", o.workers)
	}
	if o.in == "" && o.frames <= 0 {
		return fmt.Errorf("-frames %d must be positive for synthetic input", o.frames)
	}
	if o.in == "" && (o.w <= 0 || o.h <= 0 || o.w%16 != 0 || o.h%16 != 0) {
		return fmt.Errorf("-w %d -h %d must be positive multiples of 16 for synthetic input", o.w, o.h)
	}
	if o.entropy != "cabac" && o.entropy != "cavlc" {
		return fmt.Errorf("-entropy %q is not a known coder (want cabac or cavlc)", o.entropy)
	}
	if o.chunkGops < 1 {
		return fmt.Errorf("-chunk-gops %d must be >= 1", o.chunkGops)
	}
	if o.chunkIdx < 0 {
		return fmt.Errorf("-chunk %d must be >= 0", o.chunkIdx)
	}
	if o.cacheMB < 1 {
		return fmt.Errorf("-cache-mb %d must be >= 1", o.cacheMB)
	}
	if o.prefetch < 0 {
		return fmt.Errorf("-prefetch %d must be >= 0", o.prefetch)
	}
	if o.reqTimeout <= 0 {
		return fmt.Errorf("-req-timeout %v must be positive", o.reqTimeout)
	}
	return nil
}

// pipelineOptions maps the CLI flags 1:1 onto the NewPipeline functional
// options (see the NewPipeline godoc for the table): the encoder flags via
// WithParams, -workers via WithWorkers, -chunk-gops via WithChunkGOPs. The
// seed is an argument of the round trips and the observer rides the context.
func (o options) pipelineOptions() []videoapp.Option {
	return []videoapp.Option{
		videoapp.WithParams(o.params()),
		videoapp.WithWorkers(o.workers),
		videoapp.WithChunkGOPs(o.chunkGops),
	}
}

func (o options) params() videoapp.Params {
	p := videoapp.DefaultParams()
	p.CRF = o.crf
	p.GOPSize = o.gop
	p.BFrames = o.bframes
	p.SlicesPerFrame = o.slices
	p.HalfPel = o.halfpel
	p.Deblock = o.deblock
	if o.entropy == "cavlc" {
		p.Entropy = videoapp.CAVLC
	}
	return p
}

// streamSource opens the raw input as an incrementally read ChunkSource:
// .y4m files are decoded frame by frame (bounded memory); synthetic input
// is generated up front and replayed. The caller must invoke the returned
// closer once streaming finishes.
func (o options) streamSource() (videoapp.ChunkSource, func() error, error) {
	if o.in == "" {
		seq, err := videoapp.GenerateTestVideo(o.preset, o.w, o.h, o.frames)
		if err != nil {
			return nil, nil, err
		}
		return videoapp.SequenceSource(seq), func() error { return nil }, nil
	}
	if looksLikeContainer(o.in) {
		return nil, nil, fmt.Errorf("streaming needs raw .y4m input, not a .vapp container (%s)", o.in)
	}
	f, err := os.Open(o.in)
	if err != nil {
		return nil, nil, err
	}
	src, err := videoapp.Y4MSource(f, o.in)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return src, f.Close, nil
}

// loadRaw returns the raw input sequence: a .y4m file or a synthetic preset.
func (o options) loadRaw() (*videoapp.Sequence, error) {
	if o.in == "" {
		return videoapp.GenerateTestVideo(o.preset, o.w, o.h, o.frames)
	}
	f, err := os.Open(o.in)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return y4m.ReadAll(f, o.in)
}

// loadVideo returns an encoded video: a .vapp container (reanalyzed) or a
// fresh encode of the raw input.
func (o options) loadVideo(ctx context.Context) (*videoapp.Video, *videoapp.Sequence, error) {
	if o.in != "" && looksLikeContainer(o.in) {
		data, err := os.ReadFile(o.in)
		if err != nil {
			return nil, nil, err
		}
		v, err := videoapp.Unmarshal(data)
		if err != nil {
			return nil, nil, err
		}
		if err := videoapp.Reanalyze(v); err != nil {
			return nil, nil, err
		}
		return v, nil, nil
	}
	seq, err := o.loadRaw()
	if err != nil {
		return nil, nil, err
	}
	v, err := videoapp.EncodeContext(ctx, seq, o.params(), o.workers)
	return v, seq, err
}

func looksLikeContainer(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var magic [4]byte
	_, err = io.ReadFull(f, magic[:])
	return err == nil && string(magic[:]) == "VAPP"
}

func writeOut(path string, write func(*os.File) error) error {
	if path == "" {
		return fmt.Errorf("this command requires -o FILE")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return write(f)
}
