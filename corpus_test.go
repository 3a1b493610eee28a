package videoapp

import (
	"bytes"
	"context"
	"fmt"
	"hash/maphash"
	"testing"

	"videoapp/internal/bch"
	"videoapp/internal/core"
	"videoapp/internal/testcorpus"
)

// The corpus: every sequence the tests feed the pipeline is rendered once
// per test binary, and every video they store, read or damage is processed
// once — encoded, analysed and partitioned. Entries are
// read-only: a test gets a Result of its own from entry.result, clones what
// else it changes, and fails in its cleanup if it left an entry changed.

// clip names a corpus entry: preset rendered at w×h×frames and, unless
// assign is empty, processed under p and the named assignment; a reference
// clip is also produced once, observed, at one worker.
type clip struct {
	preset       string
	w, h, frames int
	p            Params
	assign       string // a key of assignments; "" renders only
	reference    bool
}

var assignments = map[string]func() ClassAssignment{"paper": PaperAssignment, "none": allNoneAssignment}

// allNoneAssignment stores every payload bit uncorrected.
func allNoneAssignment() ClassAssignment {
	return ClassAssignment{
		Bounds: []core.ClassBound{{MaxClass: 1 << 30, Scheme: bch.SchemeNone}},
		Header: bch.SchemeBCH16,
	}
}

// entry is one corpus clip.
type entry struct {
	clip
	seq *Sequence
	res *Result  // ProcessContext at one worker; nil for a render-only clip
	ref *outcome // produce at one worker under a Metrics; nil unless a reference clip
}

// mainClip is the clip most tests process: 18 crew_like frames at 96×64 in
// GOPs of four, so that the last GOP is ragged and a stream of one GOP per
// chunk has five chunks.
func mainClip() clip {
	p := DefaultParams()
	p.GOPSize, p.SearchRange = 4, 8
	return clip{preset: "crew_like", w: 96, h: 64, frames: 18, p: p, assign: "paper"}
}

// mainOf is the entry of mainClip.
func mainOf(t testing.TB) *entry { return corpusOf(t, mainClip()) }

// referenceOf is the outcome every invariance run is held to: the main
// clip produced at one worker, observed.
func referenceOf(t testing.TB) outcome {
	k := mainClip()
	k.reference = true
	return *corpusOf(t, k).ref
}

// seqOf is preset rendered at w×h×frames.
func seqOf(t testing.TB, preset string, w, h, frames int) *Sequence {
	return corpusOf(t, clip{preset: preset, w: w, h: h, frames: frames}).seq
}

// corpusOf returns the entry of k, building it on first use, and fails t at
// its end if t left it changed.
func corpusOf(t testing.TB, k clip) *entry {
	t.Helper()
	return testcorpus.Of(t, k, buildEntry, (*entry).hash)
}

func buildEntry(t testing.TB, k clip) *entry {
	t.Helper()
	e := &entry{clip: k}
	switch {
	case k.reference:
		base := k
		base.reference = false
		b := corpusOf(t, base)
		o := produce(t, b, 1, NewMetrics())
		e.seq, e.ref = b.seq, &o
	case k.assign == "":
		seq, err := GenerateTestVideo(k.preset, k.w, k.h, k.frames)
		if err != nil {
			t.Fatal(err)
		}
		e.seq = seq
	default:
		e.seq = seqOf(t, k.preset, k.w, k.h, k.frames)
		res, err := e.pipeline(1).ProcessContext(context.Background(), e.seq)
		if err != nil {
			t.Fatal(err)
		}
		e.res = res
	}
	return e
}

// hash writes the samples of the entry's sequences; of its Results the
// container bytes, the macroblock records and dependencies the container
// leaves out, the partitions, both importance maps and the footprint; and of
// a reference outcome also the archive, the flips and the metrics.
func (e *entry) hash(h *maphash.Hash) {
	seqs, results := []*Sequence{e.seq}, []*Result{e.res}
	if o := e.ref; o != nil {
		seqs, results = append(seqs, o.dec), append(results, o.res)
		h.Write(o.container)
		h.Write(o.archive)
		fmt.Fprint(h, o.flips, o.processed, o.snap)
	}
	for _, seq := range seqs {
		for _, f := range seq.Frames {
			h.Write(f.Y)
			h.Write(f.Cb)
			h.Write(f.Cr)
		}
	}
	for _, r := range results {
		if r != nil {
			h.Write(Marshal(r.Video))
			for _, f := range r.Video.Frames {
				fmt.Fprint(h, f.MBs, f.Deps)
			}
			fmt.Fprint(h, r.Partitions, r.Analysis.Importance, r.Analysis.CompImportance, r.Stats)
		}
	}
}

// result is a Result of the test's own: the processed clip over a clone of
// its video — which no other test's round trip has left parse records on —
// running round trips at workers.
func (e *entry) result(workers int) *Result {
	r := *e.res
	r.Video = e.res.Video.Clone()
	r.workers = workers
	return &r
}

// pipeline is a pipeline configured as the clip was processed, at workers.
func (e *entry) pipeline(workers int, opts ...Option) *Pipeline {
	return NewPipeline(append([]Option{WithParams(e.p), WithAssignment(assignments[e.assign]()), WithWorkers(workers)}, opts...)...)
}

// sameSequence reports whether a and b hold the same samples.
func sameSequence(a, b *Sequence) bool {
	if len(a.Frames) != len(b.Frames) {
		return false
	}
	for i := range a.Frames {
		if !bytes.Equal(a.Frames[i].Y, b.Frames[i].Y) || !bytes.Equal(a.Frames[i].Cb, b.Frames[i].Cb) || !bytes.Equal(a.Frames[i].Cr, b.Frames[i].Cr) {
			return false
		}
	}
	return true
}
