package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"videoapp/internal/codec"
)

// The ingest matrix: every synth preset x three quality targets x both
// entropy coders, 12 frames each as two 6-frame chunks. It is the same set
// of 84 videos for every seed (the seed orders them), so the density and
// quality figures are exact; one pass over it is the unit of timed work.
const (
	ingestFrames     = 12
	ingestGOP        = 6
	ingestSerialSize = 6 // videos re-archived at workers=1 by verify
)

var (
	ingestCRFs    = []int{24, 20, 16}
	ingestCoders  = []codec.EntropyKind{codec.CABAC, codec.CAVLC}
	smallIngestCR = []int{24}
)

type digest = [sha256.Size]byte

// ingestWorkload drives Pipeline.StreamToArchive into files, one video
// after another, with the pipeline's own workers set to the CPU count.
type ingestWorkload struct {
	in    corpus
	order []int
	dens  density
	// first holds the digests of the first untraced pass of this process:
	// every later pass, the workers=1 sample and the stage-by-stage traced
	// pass must reproduce them.
	first []digest
}

func (w *ingestWorkload) inputs() *corpus { return &w.in }

func (w *ingestWorkload) fingerprint() string {
	h := sha256.New()
	for _, sum := range w.first {
		h.Write(sum[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
func (w *ingestWorkload) tearDown() {
	for _, p := range w.in.archives {
		os.Remove(p)
	}
}

func (w *ingestWorkload) setUp(_ context.Context, e *env) error {
	crfs := ingestCRFs
	if e.small {
		crfs = smallIngestCR
	}
	for _, name := range presetNames(e) {
		seq, err := generate(e, name, ingestFrames)
		if err != nil {
			return err
		}
		for _, crf := range crfs {
			for _, ent := range ingestCoders {
				id := fmt.Sprintf("%s-crf%d-%s", name, crf, ent)
				w.in.videos = append(w.in.videos, video{name: id, seq: seq, params: encodeParams(crf, ingestGOP, ent)})
				w.in.archives = append(w.in.archives, filepath.Join(e.dir, id+".vacs"))
			}
		}
	}
	w.order = seededPerm(e.seed, streamOrder, len(w.in.videos))
	return nil
}

// ingestCheck is what verify needs from the measured passes.
type ingestCheck struct {
	passes [][]digest
}

func (w *ingestWorkload) measure(ctx context.Context, e *env) (*outcome, error) {
	o := &outcome{}
	chk := &ingestCheck{}
	traced := e.tr != nil
	var stages *writeStages
	if traced {
		stages = &writeStages{}
		o.write = stages
	}
	passFrames := len(w.in.videos) * ingestFrames
	for pass := 0; pass == 0 || (!traced && morePasses(o.elapsed, pass, e.seconds)); pass++ {
		dens := density{}
		t0 := time.Now()
		for _, i := range w.order {
			v := w.in.videos[i]
			o.attempted++
			t1 := time.Now()
			var err error
			if traced {
				err = w.serialTo(ctx, e, i, stages, &dens)
			} else {
				stats, ierr := ingestFile(ctx, v, w.in.archives[i], e.nproc)
				dens.addStats(stats, v.seq.PixelCount())
				err = ierr
			}
			if err != nil {
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
				o.failed++
				continue
			}
			o.lat = append(o.lat, msOf(time.Since(t1)))
			o.frames += int64(len(v.seq.Frames))
		}
		d := time.Since(t0)
		o.elapsed += d
		o.rates = append(o.rates, float64(passFrames)/d.Seconds())

		// Off the clock: fingerprint what the pass wrote.
		sums := make([]digest, len(w.in.archives))
		for i, p := range w.in.archives {
			sum, n, err := fileSHA256(p)
			if err != nil {
				return nil, err
			}
			sums[i] = sum
			dens.archiveBytes += n
		}
		dens.frames = int64(passFrames)
		chk.passes = append(chk.passes, sums)
		if w.first == nil && !traced {
			w.first, w.dens = sums, dens
		}
	}
	o.check = chk
	return o, nil
}

// serialTo is the traced form of one ingest: the same video to the same
// file, one stage at a time.
func (w *ingestWorkload) serialTo(ctx context.Context, e *env, i int, stages *writeStages, dens *density) error {
	f, err := os.Create(w.in.archives[i])
	if err != nil {
		return err
	}
	v := w.in.videos[i]
	stats, err := serialIngest(ctx, e.tr, i, v, f, stages)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	dens.addStats(stats, v.seq.PixelCount())
	return err
}

// verify checks that every pass wrote the bytes the first pass wrote and
// that a seeded sample archived at workers=1 does too.
func (w *ingestWorkload) verify(ctx context.Context, e *env, o *outcome) []string {
	chk := o.check.(*ingestCheck)
	var bad []string
	for p, sums := range chk.passes {
		for i, sum := range sums {
			if w.first != nil && sum != w.first[i] {
				o.failed++
				bad = append(bad, fmt.Sprintf("pass %d: archive of %s differs from the first pass", p, w.in.videos[i].name))
			}
		}
	}
	if e.tr != nil {
		return bad
	}
	sample := seededPerm(e.seed, streamSample, len(w.in.videos))
	sample = sample[:min(ingestSerialSize, len(sample))]
	for _, i := range sample {
		path := w.in.archives[i] + ".w1"
		_, err := ingestFile(ctx, w.in.videos[i], path, 1)
		sum, _, herr := fileSHA256(path)
		os.Remove(path)
		if err != nil || herr != nil || sum != w.first[i] {
			o.failed++
			bad = append(bad, fmt.Sprintf("archive of %s at workers=1 differs from workers=%d (%v %v)", w.in.videos[i].name, e.nproc, err, herr))
		}
	}
	return bad
}

// cost re-reads every archived chunk, decodes it cleanly and takes its PSNR
// against the source; with the footprint of the first pass that is the
// density and quality of what was archived.
func (w *ingestWorkload) cost(ctx context.Context, e *env) (*density, error) {
	type result struct {
		refs []chunkRef
		err  error
	}
	results := make([]result, len(w.in.archives))
	next := make(chan int)
	var wg sync.WaitGroup
	for g := 0; g < e.nproc; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				refs, err := referenceRenders(ctx, w.in.archives[i], w.in.videos[i].seq, 1)
				results[i] = result{refs, err}
			}
		}()
	}
	for i := range w.in.archives {
		next <- i
	}
	close(next)
	wg.Wait()
	w.dens.psnrSum, w.dens.psnrN = 0, 0
	for i, r := range results {
		if r.err != nil {
			return nil, fmt.Errorf("re-reading the archive of %s: %w", w.in.videos[i].name, r.err)
		}
		for _, ref := range r.refs {
			w.dens.psnrSum += ref.psnr
			w.dens.psnrN++
		}
	}
	return &w.dens, nil
}
