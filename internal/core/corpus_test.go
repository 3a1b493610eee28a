package core

import (
	"bytes"
	"context"
	"fmt"
	"hash/maphash"
	"slices"
	"testing"

	"videoapp/internal/codec"
	"videoapp/internal/synth"
	"videoapp/internal/testcorpus"
)

// The encoded corpus: every clip the analysis tests read is encoded once per
// test binary and analysed once, serially, under the default options. Entries
// are read-only; a test that changes a video clones it, one that changes an
// analysis makes its own, and one that leaves an entry changed fails in its
// cleanup.

// clip names a corpus entry: preset rendered at w×h×frames and coded in
// GOPs of gop frames with bFrames unreferenced B frames and slices slices
// per frame.
type clip struct {
	preset               string
	w, h, frames         int
	gop, bFrames, slices int
}

func (c clip) String() string {
	return fmt.Sprintf("%s %dx%dx%d (GOP %d, %d B, %d slices)", c.preset, c.w, c.h, c.frames, c.gop, c.bFrames, c.slices)
}

// The clips. Each property that holds of any video is checked over allClips,
// every clip but the benchmarks'; one with a twin test of its own for sliced
// frames over unslicedClips and slicedClips.
var (
	gopsClip      = clip{"crew_like", 64, 48, 12, 4, 0, 1}   // three closed GOPs
	newsClip      = clip{"news_like", 64, 48, 10, 12, 0, 1}  // one GOP
	sportsClip    = clip{"sports_like", 96, 64, 8, 12, 0, 1} // one GOP
	bClip         = clip{"crew_like", 64, 48, 12, 12, 2, 1}  // unreferenced B frames
	damageClip    = clip{"crew_like", 96, 64, 12, 12, 0, 1}  // the §7.1 miniature's
	unslicedClips = []clip{gopsClip, newsClip, sportsClip, bClip, damageClip, slicedClip(1)}
	slicedClips   = []clip{slicedClip(2), slicedClip(3), slicedClip(4)}
	allClips      = append(slices.Clip(unslicedClips), slicedClips...)
)

// slicedClip is 8 parkrun_like frames at 96×64 with the given slice count.
func slicedClip(slices int) clip { return clip{"parkrun_like", 96, 64, 8, 12, 0, slices} }

// benchClip is the benchmarks' 176×144 crew_like clip of the given length.
func benchClip(frames int) clip { return clip{"crew_like", 176, 144, frames, 12, 0, 1} }

// params are the encoder parameters of c.
func (c clip) params() codec.Params {
	p := codec.DefaultParams()
	p.GOPSize, p.SearchRange, p.BFrames, p.SlicesPerFrame = c.gop, 8, c.bFrames, c.slices
	return p
}

// entry is one encoded clip and its serial analysis.
type entry struct {
	clip
	v     *codec.Video
	an    *Analysis
	parts []FramePartition // an under PaperAssignment
}

// corpusOf returns the entry of c, encoding it on first use, and fails t at
// its end if t left it changed.
func corpusOf(t testing.TB, c clip) *entry {
	t.Helper()
	return testcorpus.Of(t, c, buildEntry, (*entry).hash)
}

func buildEntry(t testing.TB, c clip) *entry {
	t.Helper()
	cfg, ok := synth.PresetByName(c.preset)
	if !ok {
		t.Fatalf("unknown preset %s", c.preset)
	}
	v, err := codec.EncodeParallelContext(context.Background(), synth.Generate(cfg.ScaleTo(c.w, c.h, c.frames)), c.params(), 1)
	if err != nil {
		t.Fatal(err)
	}
	an := analyze(t, v)
	return &entry{clip: c, v: v, an: an, parts: an.Partition(PaperAssignment())}
}

// hash writes the video — container bytes, records and dependencies — the
// analysis and the partitions.
func (e *entry) hash(h *maphash.Hash) {
	h.Write(codec.Marshal(e.v))
	for _, f := range e.v.Frames {
		fmt.Fprint(h, f.MBs, f.Deps)
	}
	fmt.Fprint(h, e.an.Importance, e.an.CompImportance, e.parts)
}

// analyze runs AnalyzeContext at one worker, the serial sweep.
func analyze(t testing.TB, v *codec.Video) *Analysis {
	t.Helper()
	an, err := AnalyzeContext(context.Background(), v, DefaultOptions(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return an
}

// holds fails t at the first clip of cs whose entry prop finds wrong.
func holds(t *testing.T, cs []clip, prop func(e *entry) error) {
	t.Helper()
	for _, c := range cs {
		e := corpusOf(t, c)
		if err := prop(e); err != nil {
			t.Fatalf("%v: %v", e, err)
		}
	}
}

// The bodies of the properties that hold of any video, real or synthetic:
// each returns nil when the property holds.

// atLeastOne: every macroblock's importance is at least 1, itself.
func atLeastOne(an *Analysis) error {
	for f, row := range an.Importance {
		for m, imp := range row {
			if imp < 1 {
				return fmt.Errorf("frame %d MB %d: importance %f < 1", f, m, imp)
			}
		}
	}
	return nil
}

// tiles: the segments of every frame's partition tile its payload, with no
// gap, overlap or empty segment.
func tiles(v *codec.Video, parts []FramePartition) error {
	for f, fp := range parts {
		var pos int64
		for _, s := range fp.Segments(v.Frames[f].PayloadBits()) {
			if s.Start != pos || s.Bits <= 0 {
				return fmt.Errorf("frame %d: segment [%d, +%d) after bit %d", f, s.Start, s.Bits, pos)
			}
			pos += s.Bits
		}
		if pos != v.Frames[f].PayloadBits() {
			return fmt.Errorf("frame %d: segments cover %d of %d bits", f, pos, v.Frames[f].PayloadBits())
		}
	}
	return nil
}

// splitMerge: splitting v's payloads by parts and merging the streams back
// by pivots (parts again when nil) restores every payload bit for bit.
func splitMerge(v *codec.Video, parts, pivots []FramePartition) error {
	ss, err := SplitStreams(v, parts)
	if err != nil {
		return err
	}
	if pivots != nil {
		ss.Parts = pivots
	}
	merged, err := ss.Merge(v)
	if err != nil {
		return err
	}
	for f := range v.Frames {
		if !bytes.Equal(v.Frames[f].Payload, merged.Frames[f].Payload) {
			return fmt.Errorf("frame %d differs after split and merge", f)
		}
	}
	return nil
}
