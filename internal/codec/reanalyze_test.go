package codec

import (
	"slices"
	"testing"
)

// reanalyzed returns v stripped of its records by the container and given
// new ones by Reanalyze.
func reanalyzed(t *testing.T, v *Video) *Video {
	t.Helper()
	c, err := Unmarshal(Marshal(v))
	if err != nil {
		t.Fatal(err)
	}
	if err := Reanalyze(c); err != nil {
		t.Fatal(err)
	}
	return c
}

// checkReanalyzeRecovers requires Reanalyze to rebuild, from every golden
// design point whose parameters uses accepts, the macroblock headers (modes,
// quantizers) and dependencies (footprints) the encoder recorded.
func checkReanalyzeRecovers(t *testing.T, uses func(Params) bool) {
	for _, gc := range goldenCases(t) {
		if !uses(gc.clean.Params) {
			continue
		}
		got := reanalyzed(t, gc.clean)
		for fi, ef := range gc.clean.Frames {
			g := got.Frames[fi]
			if len(g.MBs) != len(ef.MBs) {
				t.Fatalf("%s frame %d: %d records, encoder %d", gc.key, fi, len(g.MBs), len(ef.MBs))
			}
			for mi, want := range ef.MBs {
				r := g.MBs[mi]
				if r.MB != want.MB || r.Intra != want.Intra || r.QP != want.QP || !slices.Equal(g.MBDeps(mi), ef.MBDeps(mi)) {
					t.Fatalf("%s frame %d MB %d: %+v with deps %+v, encoder %+v with %+v", gc.key, fi, mi, r, g.MBDeps(mi), want, ef.MBDeps(mi))
				}
			}
		}
	}
}

func TestReanalyzeRecoversDependencies(t *testing.T) {
	checkReanalyzeRecovers(t, func(Params) bool { return true })
}

func TestReanalyzeBitRangesCoverPayload(t *testing.T) {
	seq := testSeq(t, "parkrun_like", 96, 64, 8)
	p := testParams()
	p.SlicesPerFrame = 2
	v, err := encode(seq, p)
	if err != nil {
		t.Fatal(err)
	}
	for fi, ef := range reanalyzed(t, v).Frames {
		var total int64
		for i, mb := range ef.MBs {
			if mb.BitLen < 0 {
				t.Fatalf("frame %d MB %d: negative length", fi, i)
			}
			total += int64(mb.BitLen)
		}
		if total != ef.PayloadBits() {
			t.Fatalf("frame %d: ranges cover %d of %d bits", fi, total, ef.PayloadBits())
		}
	}
}

func TestReanalyzeBitRangesCloseToEncoder(t *testing.T) {
	// CABAC decode-side attribution is allowed to differ from the encoder's
	// by the coder's lookahead, but only by a few bits.
	seq := testSeq(t, "news_like", 96, 64, 6)
	v, err := encode(seq, testParams())
	if err != nil {
		t.Fatal(err)
	}
	stripped := reanalyzed(t, v)
	for fi, ef := range v.Frames {
		for mi, want := range ef.MBs {
			got := stripped.Frames[fi].MBs[mi]
			diff := got.BitStart - want.BitStart
			if diff < -2 || diff > 24 {
				t.Fatalf("frame %d MB %d: start %d vs encoder %d", fi, mi, got.BitStart, want.BitStart)
			}
		}
	}
}

func TestReanalyzeIdempotent(t *testing.T) {
	seq := testSeq(t, "crew_like", 64, 48, 5)
	v, err := encode(seq, testParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := Reanalyze(v); err != nil {
		t.Fatal(err)
	}
	first := append([]MBRecord(nil), v.Frames[1].MBs...)
	if err := Reanalyze(v); err != nil {
		t.Fatal(err)
	}
	for i, mb := range v.Frames[1].MBs {
		if mb.BitStart != first[i].BitStart || mb.BitLen != first[i].BitLen {
			t.Fatal("reanalysis must be deterministic")
		}
	}
}

// TestReanalyzeAllocationBudget pins Reanalyze's record mode to a constant
// number of allocations per frame: each frame's records and its dependency
// array are allocated once, exact-size, the dependency scratch is reused
// across frames, and a reconstruction (a Frame and its three planes) comes
// from the pool when it holds one. Growing every macroblock's own
// dependency slice cost about 380 allocations per frame of this chunk.
func TestReanalyzeAllocationBudget(t *testing.T) {
	for _, coder := range []EntropyKind{CABAC, CAVLC} {
		v := decodeChunkVideo(t, coder)
		allocs := testing.AllocsPerRun(10, func() {
			if err := Reanalyze(v); err != nil {
				t.Fatal(err)
			}
		})
		n := float64(len(v.Frames))
		t.Logf("%s: %.0f allocations per %d-frame Reanalyze", coder, allocs, len(v.Frames))
		if budget := 16 + n*(4+3); allocs > budget {
			t.Fatalf("%s: %.0f allocations per Reanalyze, budget %.0f (16 per call + %d frames × (4 for the reconstruction + 3))",
				coder, allocs, budget, len(v.Frames))
		}
	}
}
