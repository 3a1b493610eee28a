package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"videoapp"
	"videoapp/internal/bch"
	"videoapp/internal/codec"
	"videoapp/internal/core"
	"videoapp/internal/frame"
	"videoapp/internal/quality"
	"videoapp/internal/store"
	"videoapp/internal/synth"
	"videoapp/internal/y4m"
)

// Every workload uses the repository's default experiment geometry.
const frameW, frameH = 320, 176

// env is what one run of one workload is given.
type env struct {
	seed    int64
	seconds float64
	nproc   int
	dir     string  // scratch directory for the archives the run writes
	tr      *tracer // nil on untraced runs
	// small shrinks every corpus to a few frames: the harness self-test
	// uses it to run all four workloads in seconds. Real runs never set it.
	small bool
}

// video is one input: a synthetic source and how to encode it.
type video struct {
	name   string
	seq    *frame.Sequence
	params codec.Params
}

// corpus is what a workload's set-up leaves behind: its inputs and the
// VACS files holding them. The layer probes of a traced run work on it, so
// every layer is measured on the content the workload itself uses.
type corpus struct {
	videos   []video
	archives []string
}

// unit is one independently decodable piece of an encoded video (a chunk,
// or a whole video) with everything a storage round trip needs.
type unit struct {
	src   *frame.Sequence
	video *codec.Video
	an    *core.Analysis
	parts []core.FramePartition
}

// generate renders frames of one synthetic preset under a span.
func generate(e *env, preset string, frames int) (*frame.Sequence, error) {
	cfg, ok := synth.PresetByName(preset)
	if !ok {
		return nil, fmt.Errorf("unknown synth preset %q", preset)
	}
	id := e.tr.start(0, "synth.generate", frames)
	seq := synth.Generate(cfg.ScaleTo(frameW, frameH, frames))
	e.tr.end(id)
	return seq, nil
}

// presetNames lists the synthetic suite; small keeps the first two.
func presetNames(e *env) []string {
	names := make([]string, 0, len(synth.Presets))
	for _, p := range synth.Presets {
		names = append(names, p.Name)
	}
	if e.small {
		names = names[:2]
	}
	return names
}

// encodeParams is the default encoder configuration at the given quality
// target, GOP length and entropy coder.
func encodeParams(crf, gop int, ent codec.EntropyKind) codec.Params {
	p := codec.DefaultParams()
	p.CRF, p.GOPSize, p.Entropy = crf, gop, ent
	return p
}

// noneAssignment stores every payload bit without correction and keeps the
// headers precise: the stress design whose round trips carry hundreds of
// flips, so the damaged-decode and resync paths of the decoder run.
func noneAssignment() core.ClassAssignment {
	return core.ClassAssignment{
		Bounds: []core.ClassBound{{MaxClass: 1 << 30, Scheme: bch.SchemeNone}},
		Header: bch.SchemeBCH16,
	}
}

// ingestFile runs the write path the CLI's archive command runs:
// Pipeline.StreamToArchive straight into a file, one GOP per chunk.
func ingestFile(ctx context.Context, v video, path string, workers int) (store.Stats, error) {
	f, err := os.Create(path)
	if err != nil {
		return store.Stats{}, err
	}
	stats, err := streamTo(ctx, v, f, workers)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return stats, err
}

func streamTo(ctx context.Context, v video, w io.Writer, workers int) (store.Stats, error) {
	p := videoapp.NewPipeline(videoapp.WithParams(v.params), videoapp.WithWorkers(workers))
	_, stats, err := p.StreamToArchive(ctx, videoapp.SequenceSource(v.seq), w)
	return stats, err
}

// fileSHA256 hashes a file.
func fileSHA256(path string) ([sha256.Size]byte, int64, error) {
	var sum [sha256.Size]byte
	f, err := os.Open(path)
	if err != nil {
		return sum, 0, err
	}
	defer f.Close()
	h := sha256.New()
	n, err := io.Copy(h, f)
	if err != nil {
		return sum, 0, err
	}
	copy(sum[:], h.Sum(nil))
	return sum, n, nil
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// chunkRef is the reference render of one archived chunk, built by the
// benchmark itself with direct calls and never through the server.
type chunkRef struct {
	crc    uint32
	size   int
	frames int
	psnr   float64 // decoded frames against their source frames
}

// openArchive opens a VACS file the way the catalog does.
func openArchive(path string) (*store.ChunkArchive, store.Backend, error) {
	b, err := store.OpenFileBackend(path, false)
	if err != nil {
		return nil, nil, err
	}
	a, err := store.OpenArchiveBackend(b)
	if err != nil {
		b.Close()
		return nil, nil, err
	}
	return a, b, nil
}

// referenceRenders re-reads every chunk of an archive, decodes it cleanly
// and renders it as y4m: read -> decode -> render by direct calls, the
// three steps the server's cold path performs. The result is what served
// bodies are checked against and where psnr_db comes from.
func referenceRenders(ctx context.Context, path string, src *frame.Sequence, workers int) ([]chunkRef, error) {
	a, b, err := openArchive(path)
	if err != nil {
		return nil, err
	}
	defer b.Close()
	defer a.Close()
	refs := make([]chunkRef, a.NumChunks())
	var buf bytes.Buffer
	for i := range refs {
		info, err := a.Info(i)
		if err != nil {
			return nil, err
		}
		cr, err := a.ReadChunkContext(ctx, i)
		if err != nil {
			return nil, err
		}
		if len(cr.Degraded) > 0 {
			return nil, fmt.Errorf("chunk %d of %s read degraded: %v", i, filepath.Base(path), cr.Degraded)
		}
		seq, err := codec.DecodeContext(ctx, cr.Video, codec.DecodeOptions{}, workers)
		if err != nil {
			return nil, err
		}
		buf.Reset()
		if err := y4m.Write(&buf, seq); err != nil {
			return nil, err
		}
		orig := &frame.Sequence{FPS: src.FPS, Frames: src.Frames[info.FirstFrame : info.FirstFrame+info.Frames]}
		psnr, err := quality.PSNRContext(ctx, orig, seq, workers)
		if err != nil {
			return nil, err
		}
		refs[i] = chunkRef{crc: crc32.Checksum(buf.Bytes(), castagnoli), size: buf.Len(), frames: info.Frames, psnr: psnr}
	}
	return refs, nil
}

// density is the storage cost and quality of the videos a workload
// handles: the two axes a speed is only meaningful next to.
type density struct {
	cells        float64
	pixels       int64
	archiveBytes int64
	frames       int64
	psnrSum      float64 // sum of per-chunk (or per-trip) PSNR
	psnrN        int
}

func (d *density) addStats(st store.Stats, pixels int64) {
	d.cells += st.Cells
	d.pixels += pixels
}

func (d *density) cellsPerPixel() float64 { return d.cells / float64(d.pixels) }
func (d *density) bytesPerFrame() float64 { return float64(d.archiveBytes) / float64(d.frames) }
func (d *density) psnrDB() float64        { return d.psnrSum / float64(d.psnrN) }
