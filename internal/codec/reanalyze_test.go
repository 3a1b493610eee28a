package codec

import (
	"testing"
)

func TestReanalyzeRecoversDependencies(t *testing.T) {
	// Decoding a clean stream must recover exactly the dependency records
	// the encoder produced: same MVs, same modes, same footprints.
	seq := testSeq(t, "crew_like", 96, 64, 10)
	for _, kind := range []EntropyKind{CABAC, CAVLC} {
		p := testParams()
		p.Entropy = kind
		v, err := encode(seq, p)
		if err != nil {
			t.Fatal(err)
		}
		// Strip the records via the container and rebuild them by decoding.
		stripped, err := Unmarshal(Marshal(v))
		if err != nil {
			t.Fatal(err)
		}
		if err := Reanalyze(stripped); err != nil {
			t.Fatal(err)
		}
		for fi, ef := range v.Frames {
			got := stripped.Frames[fi].MBs
			if len(got) != len(ef.MBs) {
				t.Fatalf("%v frame %d: %d records, want %d", kind, fi, len(got), len(ef.MBs))
			}
			for mi, want := range ef.MBs {
				g := got[mi]
				if g.MB != want.MB || g.Intra != want.Intra || g.QP != want.QP {
					t.Fatalf("%v frame %d MB %d: header mismatch (%+v vs %+v)", kind, fi, mi, g, want)
				}
				wd := map[CompDep]int{}
				for _, d := range ef.MBDeps(mi) {
					wd[d]++
				}
				gd := map[CompDep]int{}
				for _, d := range stripped.Frames[fi].MBDeps(mi) {
					gd[d]++
				}
				if len(wd) != len(gd) {
					t.Fatalf("%v frame %d MB %d: dep sets differ (%d vs %d)", kind, fi, mi, len(gd), len(wd))
				}
				for k, n := range wd {
					if gd[k] != n {
						t.Fatalf("%v frame %d MB %d: dep %v count %d vs %d", kind, fi, mi, k, gd[k], n)
					}
				}
			}
		}
	}
}

func TestReanalyzeBitRangesCoverPayload(t *testing.T) {
	seq := testSeq(t, "parkrun_like", 96, 64, 8)
	p := testParams()
	p.SlicesPerFrame = 2
	v, err := encode(seq, p)
	if err != nil {
		t.Fatal(err)
	}
	stripped, err := Unmarshal(Marshal(v))
	if err != nil {
		t.Fatal(err)
	}
	if err := Reanalyze(stripped); err != nil {
		t.Fatal(err)
	}
	for fi, ef := range stripped.Frames {
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
	stripped, err := Unmarshal(Marshal(v))
	if err != nil {
		t.Fatal(err)
	}
	if err := Reanalyze(stripped); err != nil {
		t.Fatal(err)
	}
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
