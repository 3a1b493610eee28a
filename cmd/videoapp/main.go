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
// Input is -in FILE (.y4m or .vapp as appropriate) or, when -in is omitted,
// the synthetic -preset at -w/-h/-frames.
//
// The archive command always streams: frames are pulled from the input one
// closed-GOP chunk (-chunk-gops) at a time and appended to the archive as
// they finish, so peak memory is bounded by the chunk size, not the video
// length. The store command accepts -stream to run the same chunked
// dataflow (the result is bit-identical to the batch path).
//
// The serve command exposes archives to concurrent clients as a catalog:
//
//	videoapp serve -archive x.vacs -addr :8080
//	videoapp serve -archive-dir /data/archives -addr :8080
//
// Every archive — the one -archive file, or every *.vacs file of
// -archive-dir — is served under its basename: the index on
// /v1/archives/{name}, decoded chunk frames (y4m) on
// /v1/archives/{name}/chunks/{i}, chunk metadata on
// /v1/archives/{name}/chunks/{i}/meta, with /v1/archives listing the
// catalog and an observability snapshot on /metrics. Archives open lazily
// on first request, close again after -idle-timeout of disuse, and share
// one sharded decoded-chunk LRU cache (-cache-mb, -cache-shards) with
// sequential readahead (-prefetch) and per-request timeouts
// (-req-timeout). A single -archive is indexed once before the port opens,
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
	"math"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"videoapp"
	"videoapp/internal/faultio"
	"videoapp/internal/quality"
	"videoapp/internal/y4m"
)

type options struct {
	in, out    string
	preset     string
	w, h       int
	frames     int
	crf        int
	gop        int
	bframes    int
	slices     int
	cavlc      bool
	entropy    string
	halfpel    bool
	deblock    bool
	seed       int64
	workers    int
	stream     bool
	chunkGops  int
	chunkIdx   int
	metrics    bool
	cpuprofile string
	traceOut   string
	archive    string
	archiveDir string
	addr       string
	cacheMB    int
	cacheShard int
	prefetch   int
	reqTimeout time.Duration
	idleTime   time.Duration

	// Fault-tolerance knobs of the archive read path (serve/chunk/scrub).
	faultProfile     string
	mirror           string
	readRetries      int
	breakerThreshold int

	// mtr aggregates stage metrics when -metrics is set and trace streams
	// JSON events when -trace-out is; both also ride the run's context so
	// direct (non-pipeline) stage calls report too.
	mtr   *videoapp.Metrics
	trace *videoapp.Trace
}

func main() { os.Exit(cliMain(os.Args[1:], os.Stderr)) }

// cliMain is the testable body of main: it parses args, validates the
// flag set against the selected command, and runs it. Exit status 2 means
// the command line itself was rejected (flag parse or validation); 1 means
// the command ran and failed.
func cliMain(args []string, stderr io.Writer) int {
	var o options
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
	fs.BoolVar(&o.cavlc, "cavlc", false, "use CAVLC instead of CABAC (shorthand for -entropy cavlc)")
	fs.StringVar(&o.entropy, "entropy", "", "entropy coder: cabac or cavlc (default: cabac, or -cavlc)")
	fs.BoolVar(&o.halfpel, "halfpel", false, "half-pel motion compensation")
	fs.BoolVar(&o.deblock, "deblock", false, "in-loop deblocking filter")
	fs.Int64Var(&o.seed, "seed", 1, "storage round-trip seed")
	fs.IntVar(&o.workers, "workers", 0, "worker goroutines per pipeline stage (0 = GOMAXPROCS)")
	fs.BoolVar(&o.stream, "stream", false, "store: process as a stream of closed-GOP chunks (bit-identical to batch)")
	fs.IntVar(&o.chunkGops, "chunk-gops", 1, "closed GOPs per streaming chunk (archive granularity)")
	fs.IntVar(&o.chunkIdx, "chunk", 0, "chunk index for the chunk command")
	fs.BoolVar(&o.metrics, "metrics", false, "print per-stage wall time and pipeline counters (human + JSON)")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile to FILE; samples carry stage= pprof labels")
	fs.StringVar(&o.traceOut, "trace-out", "", "stream pipeline events to FILE as JSON lines")
	fs.StringVar(&o.archive, "archive", "", "serve: .vacs archive to serve (falls back to -in)")
	fs.StringVar(&o.archiveDir, "archive-dir", "", "serve: directory of *.vacs archives to serve as a catalog (SIGHUP rescans)")
	fs.StringVar(&o.addr, "addr", ":8080", "serve: listen address")
	fs.IntVar(&o.cacheMB, "cache-mb", 64, "serve: decoded-chunk cache budget in MiB")
	fs.IntVar(&o.cacheShard, "cache-shards", 0, "serve: cache lock shards, rounded up to a power of two (0 = auto: max(8, GOMAXPROCS))")
	fs.IntVar(&o.prefetch, "prefetch", 2, "serve: sequential readahead depth in chunks (0 disables)")
	fs.DurationVar(&o.reqTimeout, "req-timeout", 30*time.Second, "serve: per-request timeout, decode included")
	fs.DurationVar(&o.idleTime, "idle-timeout", 0, "serve: close archives unused this long (0 = never)")
	fs.StringVar(&o.faultProfile, "fault-profile", "", "inject deterministic faults into archive reads: \"seed=N,transient=P,corrupt=P,short=P,latency=D\"")
	fs.StringVar(&o.mirror, "mirror", "", "second copy of the archive for read recovery and scrub repair")
	fs.IntVar(&o.readRetries, "read-retries", 0, "archive read retries after the first failure (0 = default of 2, negative disables)")
	fs.IntVar(&o.breakerThreshold, "breaker-threshold", 0, "consecutive hard read failures that open the serve circuit breaker (0 = default of 8, negative disables)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cmd := fs.Arg(0)
	if cmd == "" {
		cmd = "store"
	}
	if err := o.validate(cmd); err != nil {
		fmt.Fprintf(stderr, "videoapp: %v\n", err)
		return 2
	}
	// Ctrl-C cancels the pipeline cooperatively at the next frame boundary.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := instrumentedRun(ctx, cmd, o); err != nil {
		fmt.Fprintf(stderr, "videoapp: %v\n", err)
		return 1
	}
	return 0
}

// instrumentedRun wires the observability flags around run: the CPU profile
// brackets the whole command, the observer (metrics aggregator and/or JSON
// trace) rides the context into every pipeline stage, and the -metrics
// report prints once the command finishes.
func instrumentedRun(ctx context.Context, cmd string, o options) error {
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
	if o.metrics {
		o.mtr = videoapp.NewMetrics()
		observers = append(observers, o.mtr)
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

	err := run(ctx, cmd, o)

	if o.trace != nil && err == nil {
		err = o.trace.Err()
	}
	if o.mtr != nil {
		snap := o.mtr.Snapshot()
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
	switch cmd {
	case "serve":
		if o.archiveDir == "" && o.archive == "" && o.in == "" {
			return fmt.Errorf("the serve command requires -archive FILE (or -in FILE, or -archive-dir DIR)")
		}
		if o.archiveDir != "" && (o.archive != "" || o.in != "") {
			return fmt.Errorf("-archive-dir conflicts with -archive/-in (serve one archive or a directory, not both)")
		}
		if o.archiveDir != "" && o.mirror != "" {
			return fmt.Errorf("-mirror attaches to a single archive and conflicts with -archive-dir")
		}
	case "scrub":
		if o.archive == "" && o.in == "" {
			return fmt.Errorf("the scrub command requires -archive FILE (or -in FILE)")
		}
	case "chunk":
		if o.in == "" {
			return fmt.Errorf("the chunk command requires -in ARCHIVE")
		}
	}
	if o.archiveDir != "" && cmd != "serve" {
		return fmt.Errorf("-archive-dir only applies to the serve command")
	}
	if o.idleTime < 0 {
		return fmt.Errorf("-idle-timeout %v must be >= 0", o.idleTime)
	}
	if o.stream && cmd != "store" {
		return fmt.Errorf("-stream only applies to the store command (the %s command is always chunked)", cmd)
	}
	if o.faultProfile != "" {
		if _, err := faultio.ParseProfile(o.faultProfile); err != nil {
			return fmt.Errorf("-fault-profile: %w", err)
		}
	}
	if o.workers < 0 {
		return fmt.Errorf("-workers %d is negative (0 selects GOMAXPROCS)", o.workers)
	}
	if o.in == "" && o.frames <= 0 {
		return fmt.Errorf("-frames %d must be positive for synthetic input", o.frames)
	}
	if o.in == "" && (o.w <= 0 || o.h <= 0) {
		return fmt.Errorf("-w %d -h %d must be positive for synthetic input", o.w, o.h)
	}
	switch o.entropy {
	case "", "cabac", "cavlc":
	default:
		return fmt.Errorf("-entropy %q is not a known coder (want cabac or cavlc)", o.entropy)
	}
	if o.entropy == "cabac" && o.cavlc {
		return fmt.Errorf("-entropy cabac contradicts -cavlc")
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
	if o.cacheShard < 0 {
		return fmt.Errorf("-cache-shards %d must be >= 0", o.cacheShard)
	}
	if o.prefetch < 0 {
		return fmt.Errorf("-prefetch %d must be >= 0", o.prefetch)
	}
	if o.reqTimeout <= 0 {
		return fmt.Errorf("-req-timeout %v must be positive", o.reqTimeout)
	}
	return nil
}

// useCAVLC resolves the entropy coder selection from -entropy and the
// -cavlc shorthand (validated to agree).
func (o options) useCAVLC() bool { return o.cavlc || o.entropy == "cavlc" }

// faultPolicy maps the read-path flags onto a FaultPolicy; zero fields
// resolve to the library defaults.
func (o options) faultPolicy() videoapp.FaultPolicy {
	return videoapp.FaultPolicy{
		MaxRetries:       o.readRetries,
		BreakerThreshold: o.breakerThreshold,
	}
}

// archivePath resolves the archive the read-path commands operate on:
// -archive, falling back to -in.
func (o options) archivePath() string {
	if o.archive != "" {
		return o.archive
	}
	return o.in
}

// openBackend opens path as the storage backend of the read path: a file
// backend, wrapped in the -fault-profile injector when one is configured.
// writable opens the file read-write so scrub can repair it in place. A
// serving catalog calls it anew on every lazy (re)open, so the injector's
// fault sequence restarts from its seed each time.
func (o options) openBackend(path string, writable bool) (videoapp.Backend, error) {
	b, err := videoapp.OpenFileBackend(path, writable)
	if err != nil || o.faultProfile == "" {
		return b, err
	}
	prof, err := faultio.ParseProfile(o.faultProfile)
	if err != nil {
		b.Close()
		return nil, err
	}
	return faultio.Wrap(b, prof), nil
}

// archiveOptions returns the options every archive opens under: the flag
// policy for retries, plus the -mirror copy for recovery when one is given.
// The returned closer releases the mirror.
func (o options) archiveOptions() ([]videoapp.ArchiveOption, func() error, error) {
	opts := []videoapp.ArchiveOption{videoapp.WithArchivePolicy(o.faultPolicy())}
	if o.mirror == "" {
		return opts, func() error { return nil }, nil
	}
	m, err := os.Open(o.mirror)
	if err != nil {
		return nil, nil, err
	}
	return append(opts, videoapp.WithMirror(m)), m.Close, nil
}

// openArchive indexes the archive at path over openBackend under
// archiveOptions. The returned closer releases the archive, its backend
// and the mirror.
func (o options) openArchive(path string, writable bool) (*videoapp.ChunkArchive, func() error, error) {
	opts, closeMirror, err := o.archiveOptions()
	if err != nil {
		return nil, nil, err
	}
	b, err := o.openBackend(path, writable)
	if err != nil {
		closeMirror()
		return nil, nil, err
	}
	a, err := videoapp.OpenArchiveBackend(b, opts...)
	if err != nil {
		b.Close()
		closeMirror()
		return nil, nil, err
	}
	return a, func() error {
		a.Close()
		err := b.Close()
		closeMirror()
		return err
	}, nil
}

// pipelineOptions maps the CLI flags 1:1 onto the NewPipeline functional
// options (see the NewPipeline godoc for the table): the encoder flags via
// WithParams, -cavlc via WithEntropyCoder, -seed via WithSeed, -workers via
// WithWorkers, and the observability flags via WithMetrics/WithObserver.
func (o options) pipelineOptions() []videoapp.Option {
	opts := []videoapp.Option{
		videoapp.WithParams(o.params()),
		videoapp.WithWorkers(o.workers),
		videoapp.WithSeed(o.seed),
		videoapp.WithChunkGOPs(o.chunkGops),
	}
	if o.useCAVLC() {
		opts = append(opts, videoapp.WithEntropyCoder(videoapp.CAVLC))
	}
	if o.mtr != nil {
		opts = append(opts, videoapp.WithMetrics(o.mtr))
	}
	if o.trace != nil {
		opts = append(opts, videoapp.WithObserver(o.trace))
	}
	return opts
}

func (o options) params() videoapp.Params {
	p := videoapp.DefaultParams()
	p.CRF = o.crf
	p.GOPSize = o.gop
	p.BFrames = o.bframes
	p.SlicesPerFrame = o.slices
	p.HalfPel = o.halfpel
	p.Deblock = o.deblock
	if o.useCAVLC() {
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
	if _, err := f.Read(magic[:]); err != nil {
		return false
	}
	return string(magic[:]) == "VAPP"
}

func run(ctx context.Context, cmd string, o options) error {
	switch cmd {
	case "presets":
		for _, n := range videoapp.PresetNames() {
			fmt.Println(n)
		}
		return nil
	case "gen":
		seq, err := videoapp.GenerateTestVideo(o.preset, o.w, o.h, o.frames)
		if err != nil {
			return err
		}
		return writeOut(o.out, func(f *os.File) error { return y4m.Write(f, seq) })
	case "encode":
		seq, err := o.loadRaw()
		if err != nil {
			return err
		}
		v, err := videoapp.EncodeContext(ctx, seq, o.params(), o.workers)
		if err != nil {
			return err
		}
		data := videoapp.Marshal(v)
		fmt.Printf("encoded %d frames: %d payload bits (%.3f bits/pixel), container %d bytes\n",
			len(v.Frames), v.TotalPayloadBits(),
			float64(v.TotalPayloadBits())/float64(seq.PixelCount()), len(data))
		clean, err := videoapp.DecodeContext(ctx, v, o.workers)
		if err != nil {
			return err
		}
		rep, err := videoapp.MeasureContext(ctx, seq, clean, o.workers)
		if err != nil {
			return err
		}
		fmt.Printf("quality: PSNR %.2f dB, SSIM %.4f, MS-SSIM %.4f, VIF %.4f\n",
			rep.PSNR, rep.SSIM, rep.MSSSIM, rep.VIF)
		if o.out != "" {
			return os.WriteFile(o.out, data, 0o644)
		}
		return nil
	case "decode":
		v, _, err := o.loadVideo(ctx)
		if err != nil {
			return err
		}
		seq, err := videoapp.DecodeContext(ctx, v, o.workers)
		if err != nil {
			return err
		}
		return writeOut(o.out, func(f *os.File) error { return y4m.Write(f, seq) })
	case "info":
		v, _, err := o.loadVideo(ctx)
		if err != nil {
			return err
		}
		types := map[string]int{}
		for _, f := range v.Frames {
			types[f.Type.String()]++
		}
		fmt.Printf("%dx%d @ %d fps, %d frames (I:%d P:%d B:%d), %s, CRF %d, GOP %d, %d slice(s)\n",
			v.W, v.H, v.FPS, len(v.Frames), types["I"], types["P"], types["B"],
			v.Params.Entropy, v.Params.CRF, v.Params.GOPSize, max1(v.Params.SlicesPerFrame))
		fmt.Printf("payload: %d bits, headers: %d bits\n", v.TotalPayloadBits(), v.HeaderBits())
		return nil
	case "heatmap":
		v, _, err := o.loadVideo(ctx)
		if err != nil {
			return err
		}
		an, err := videoapp.AnalyzeContext(ctx, v, o.workers)
		if err != nil {
			return err
		}
		return writeOut(o.out, func(f *os.File) error { return writeHeatmapPGM(f, v, an) })
	case "analyze":
		v, _, err := o.loadVideo(ctx)
		if err != nil {
			return err
		}
		an, err := videoapp.AnalyzeContext(ctx, v, o.workers)
		if err != nil {
			return err
		}
		parts := an.Partition(videoapp.PaperAssignment())
		fmt.Printf("max importance: %.0f MBs\n", an.MaxImportance())
		for f, fp := range parts {
			if f > 4 && f < len(parts)-1 {
				if f == 5 {
					fmt.Println("  ...")
				}
				continue
			}
			fmt.Printf("  frame %3d (%s): %d pivots:", f, v.Frames[f].Type, len(fp.Pivots))
			for _, pv := range fp.Pivots {
				fmt.Printf(" [bit %d -> %s]", pv.Bit, pv.Scheme.Name)
			}
			fmt.Println()
		}
		return nil
	case "store":
		v, seq, err := o.loadVideo(ctx)
		if err != nil {
			return err
		}
		// Container inputs carry their own encoder parameters, which must
		// win over the flag defaults; append so they override in order.
		p := videoapp.NewPipeline(append(o.pipelineOptions(), videoapp.WithParams(v.Params))...)
		if seq == nil {
			// Container input: measure against the clean decode.
			clean, err := videoapp.DecodeContext(ctx, v, o.workers)
			if err != nil {
				return err
			}
			seq = clean
		}
		var res *videoapp.Result
		if o.stream {
			// The chunked dataflow; the result is bit-identical to batch.
			res, err = p.ProcessStream(ctx, videoapp.SequenceSource(seq))
		} else {
			res, err = p.ProcessContext(ctx, seq)
		}
		if err != nil {
			return err
		}
		fmt.Printf("storage footprint: %.0f cells, %.4f cells/pixel, ECC overhead %.1f%%\n",
			res.Stats.Cells, res.Stats.CellsPerPixel, res.Stats.ECCOverhead*100)
		for name, bits := range res.Stats.PerScheme {
			fmt.Printf("  %-7s %12d bits\n", name, bits)
		}
		clean, err := videoapp.DecodeContext(ctx, res.Video, o.workers)
		if err != nil {
			return err
		}
		dec, flips, err := res.RoundTrip(ctx)
		if err != nil {
			return err
		}
		p0, _ := quality.PSNR(seq, clean)
		p1, _ := quality.PSNR(seq, dec)
		fmt.Printf("round trip: %d residual bit errors, PSNR %.2f dB (clean %.2f, loss %.3f dB)\n",
			flips, p1, p0, p0-p1)
		return nil
	case "archive":
		src, closeSrc, err := o.streamSource()
		if err != nil {
			return err
		}
		defer closeSrc()
		p := videoapp.NewPipeline(o.pipelineOptions()...)
		err = writeOut(o.out, func(f *os.File) error {
			meta, stats, err := p.StreamToArchive(ctx, src, f)
			if err != nil {
				return err
			}
			fmt.Printf("archived %dx%d @ %d fps in %d-GOP chunks (GOP %d)\n",
				meta.W, meta.H, meta.FPS, meta.GOPsPerChunk, meta.GOPSize)
			fmt.Printf("storage footprint: %.0f cells, %.4f cells/pixel, ECC overhead %.1f%%\n",
				stats.Cells, stats.CellsPerPixel, stats.ECCOverhead*100)
			return nil
		})
		if err != nil {
			return err
		}
		return closeSrc()
	case "chunk":
		a, closeArchive, err := o.openArchive(o.in, false)
		if err != nil {
			return err
		}
		defer closeArchive()
		info, err := a.Info(o.chunkIdx)
		if err != nil {
			return err
		}
		v, parts, err := a.ReadChunk(o.chunkIdx)
		if err != nil {
			return err
		}
		fmt.Printf("chunk %d/%d: frames %d..%d, %d payload bytes\n",
			o.chunkIdx, a.NumChunks(), info.FirstFrame, info.FirstFrame+info.Frames-1, info.Length)
		p := videoapp.NewPipeline(append(o.pipelineOptions(), videoapp.WithParams(v.Params))...)
		dec, flips, err := p.RoundTripChunk(ctx, v, parts, info.FirstFrame, o.seed)
		if err != nil {
			return err
		}
		fmt.Printf("round trip: %d residual bit errors in this chunk\n", flips)
		if o.out != "" {
			return writeOut(o.out, func(f *os.File) error { return y4m.Write(f, dec) })
		}
		return nil
	case "serve":
		return o.serveCatalog(ctx)
	case "scrub":
		// Open read-write so damaged regions can be repaired in place when
		// a -mirror is attached.
		a, closeArchive, err := o.openArchive(o.archivePath(), o.mirror != "")
		if err != nil {
			return err
		}
		defer closeArchive()
		rep, err := a.Scrub(ctx)
		if err != nil {
			return err
		}
		for _, h := range rep.Chunks {
			if len(h.Damaged) == 0 {
				continue
			}
			fmt.Printf("chunk %d: %d/%d regions damaged %v, repaired %v\n",
				h.Index, len(h.Damaged), h.Regions, h.Damaged, h.Repaired)
		}
		fmt.Printf("scrubbed %d chunks: %d damaged regions, %d repaired\n",
			len(rep.Chunks), rep.Damaged, rep.Repaired)
		if !rep.Healthy() {
			return fmt.Errorf("archive has %d unrepaired damaged regions", rep.Damaged-rep.Repaired)
		}
		return nil
	default:
		return fmt.Errorf("unknown command %q (want gen|encode|decode|info|analyze|store|archive|chunk|serve|scrub|presets)", cmd)
	}
}

// serveOptions maps the serve flags 1:1 onto the catalog options.
func (o options) serveOptions() []videoapp.ServeOption {
	opts := []videoapp.ServeOption{
		videoapp.WithCacheBytes(int64(o.cacheMB) << 20),
		videoapp.WithCacheShards(o.cacheShard),
		videoapp.WithServeWorkers(o.workers),
		videoapp.WithRequestTimeout(o.reqTimeout),
		videoapp.WithIdleTimeout(o.idleTime),
		videoapp.WithFaultPolicy(o.faultPolicy()),
		videoapp.WithPrefetch(o.prefetch),
	}
	if o.trace != nil {
		opts = append(opts, videoapp.WithServeObserver(o.trace))
	}
	return opts
}

// archiveSpecs returns one spec per served archive, named by basename: the
// single -archive file, or every *.vacs file of -archive-dir in sorted
// order. Each opens over openBackend under archOpts.
func (o options) archiveSpecs(archOpts []videoapp.ArchiveOption) ([]videoapp.ArchiveSpec, error) {
	var paths []string
	if o.archiveDir == "" {
		paths = []string{o.archivePath()}
	} else {
		entries, err := os.ReadDir(o.archiveDir)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".vacs") {
				paths = append(paths, filepath.Join(o.archiveDir, e.Name()))
			}
		}
	}
	specs := make([]videoapp.ArchiveSpec, len(paths))
	for i, path := range paths {
		specs[i] = videoapp.ArchiveSpec{
			Name:    strings.TrimSuffix(filepath.Base(path), ".vacs"),
			Open:    func() (videoapp.Backend, error) { return o.openBackend(path, false) },
			Options: archOpts,
		}
	}
	return specs, nil
}

// rescanCatalog diffs the served archives (archiveSpecs) against the
// catalog's current members: vanished archives are removed (their cached
// chunks purged), new files added. Archives present on both sides are left
// untouched — they keep serving and keep their cache entries.
func (o options) rescanCatalog(cat *videoapp.Catalog, archOpts []videoapp.ArchiveOption) error {
	specs, err := o.archiveSpecs(archOpts)
	if err != nil {
		return err
	}
	want := map[string]bool{}
	for _, s := range specs {
		want[s.Name] = true
	}
	for _, name := range cat.Names() {
		if !want[name] {
			if err := cat.Remove(name); err == nil {
				fmt.Printf("rescan: removed archive %q\n", name)
			}
		}
	}
	have := map[string]bool{}
	for _, name := range cat.Names() {
		have[name] = true
	}
	for _, s := range specs {
		if have[s.Name] {
			continue
		}
		if err := cat.Add(s); err != nil {
			fmt.Printf("rescan: skipping %q: %v\n", s.Name, err)
			continue
		}
		fmt.Printf("rescan: added archive %q\n", s.Name)
	}
	return nil
}

// serveCatalog is the serve command: a lazily-opened catalog over the
// -archive file or every .vacs file of -archive-dir, rescanned on SIGHUP.
func (o options) serveCatalog(ctx context.Context) error {
	archOpts, closeMirror, err := o.archiveOptions()
	if err != nil {
		return err
	}
	defer closeMirror()
	specs, err := o.archiveSpecs(archOpts)
	if err != nil {
		return err
	}
	var what string // what the "serving ... on" line announces
	switch {
	case o.archiveDir == "":
		// One named file must be servable before the port opens: index it
		// once now, so a missing or corrupt archive exits 1 instead of
		// answering every request with an error. (A directory member that
		// fails to open costs only its own requests.)
		a, closeArchive, err := o.openArchive(o.archivePath(), false)
		if err != nil {
			return err
		}
		what = fmt.Sprintf("%s (%d chunks, %d frames)", o.archivePath(), a.NumChunks(), a.TotalFrames())
		closeArchive()
	case len(specs) == 0:
		return fmt.Errorf("no *.vacs archives in %s", o.archiveDir)
	default:
		what = fmt.Sprintf("%d archives from %s", len(specs), o.archiveDir)
	}
	cat, err := videoapp.NewCatalog(specs, o.serveOptions()...)
	if err != nil {
		return err
	}
	defer cat.Close()

	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for {
			select {
			case <-hup:
				if err := o.rescanCatalog(cat, archOpts); err != nil {
					fmt.Printf("rescan: %v\n", err)
				}
			case <-ctx.Done():
				return
			}
		}
	}()

	l, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	fmt.Printf("serving %s on http://%s\n", what, l.Addr())
	err = cat.Serve(ctx, l)
	if o.mtr != nil {
		// Fold the server's aggregates into the -metrics report.
		snap := cat.Metrics().Snapshot()
		fmt.Println("-- serve metrics --")
		snap.WriteText(os.Stdout)
	}
	fmt.Println("server drained, exiting")
	return err
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

// writeHeatmapPGM renders the per-macroblock importance of every frame as a
// tiled grayscale image (one tile per frame, log-scaled), a quick visual
// check of the Figure 2(c)/Figure 4 dependency structure.
func writeHeatmapPGM(f *os.File, v *videoapp.Video, an *videoapp.Analysis) error {
	mbCols, mbRows := v.MBCols(), v.MBRows()
	tiles := len(v.Frames)
	cols := 1
	for cols*cols < tiles {
		cols++
	}
	rows := (tiles + cols - 1) / cols
	imgW, imgH := cols*(mbCols+1), rows*(mbRows+1)
	pix := make([]uint8, imgW*imgH)
	maxLog := math.Log2(an.MaxImportance() + 1)
	if maxLog <= 0 {
		maxLog = 1
	}
	for fi := range v.Frames {
		ox, oy := (fi%cols)*(mbCols+1), (fi/cols)*(mbRows+1)
		for m, imp := range an.Importance[fi] {
			level := math.Log2(imp+1) / maxLog
			x, y := ox+m%mbCols, oy+m/mbCols
			pix[y*imgW+x] = uint8(255 * level)
		}
	}
	if _, err := fmt.Fprintf(f, "P5\n%d %d\n255\n", imgW, imgH); err != nil {
		return err
	}
	_, err := f.Write(pix)
	return err
}

func max1(v int) int {
	if v < 1 {
		return 1
	}
	return v
}
