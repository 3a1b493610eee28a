package core

import (
	"context"
	"errors"
	"testing"

	"videoapp/internal/codec"
)

// TestAnalyzeContextBitIdentical verifies the headline guarantee of the
// parallel analysis: every importance value is bit-identical to the serial
// sweep at every worker count, because spans of the dependency DAG never
// interleave their floating-point accumulations.
func TestAnalyzeContextBitIdentical(t *testing.T) {
	p := smallParams()
	p.GOPSize = 4 // 12 frames -> 3 independent spans
	v := encodeTestVideo(t, "crew_like", 64, 48, 12, p)
	ref := analyze(t, v, DefaultOptions())
	for _, workers := range []int{1, 2, 8} {
		an, err := AnalyzeContext(context.Background(), v, DefaultOptions(), workers)
		if err != nil {
			t.Fatal(err)
		}
		for f := range ref.Importance {
			for m := range ref.Importance[f] {
				if an.Importance[f][m] != ref.Importance[f][m] {
					t.Fatalf("workers=%d: frame %d MB %d: %v != %v",
						workers, f, m, an.Importance[f][m], ref.Importance[f][m])
				}
				if an.CompImportance[f][m] != ref.CompImportance[f][m] {
					t.Fatalf("workers=%d: frame %d MB %d: comp importance differs", workers, f, m)
				}
			}
		}
	}
}

func TestDepSpansClosedGOPs(t *testing.T) {
	p := smallParams()
	p.GOPSize = 4
	v := encodeTestVideo(t, "news_like", 64, 48, 10, p)
	spans := depSpans(v)
	want := [][2]int{{0, 4}, {4, 8}, {8, 10}}
	if len(spans) != len(want) {
		t.Fatalf("spans %v", spans)
	}
	for i := range want {
		if spans[i] != want[i] {
			t.Fatalf("spans %v, want %v", spans, want)
		}
	}
	// A dependency crossing a GOP boundary must fuse the spans. The last
	// macroblock's window ends the frame's dependency array.
	f5 := v.Frames[5]
	f5.Deps = append(f5.Deps, codec.CompDep{SrcFrame: 3, SrcMB: 0, Pixels: 16})
	f5.MBs[len(f5.MBs)-1].DepN++
	spans = depSpans(v)
	if spans[0] != [2]int{0, 8} {
		t.Fatalf("cross-GOP dep not honoured: %v", spans)
	}
	// And the fused analysis must still match serial exactly.
	ref := analyze(t, v, DefaultOptions())
	an, err := AnalyzeContext(context.Background(), v, DefaultOptions(), 8)
	if err != nil {
		t.Fatal(err)
	}
	for f := range ref.Importance {
		for m := range ref.Importance[f] {
			if an.Importance[f][m] != ref.Importance[f][m] {
				t.Fatalf("frame %d MB %d differs after fuse", f, m)
			}
		}
	}
}

func TestAnalyzeContextCancelled(t *testing.T) {
	v := encodeTestVideo(t, "news_like", 64, 48, 8, smallParams())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := AnalyzeContext(ctx, v, DefaultOptions(), 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v", err)
	}
}

func TestNonMonotoneSentinel(t *testing.T) {
	// Hand-build an analysis whose importance rises in scan order; the
	// checker must flag it with the ErrNonMonotone sentinel.
	v := encodeTestVideo(t, "news_like", 64, 48, 2, smallParams())
	an := analyze(t, v, DefaultOptions())
	an.Importance[0][1] = an.Importance[0][0] + 5
	err := an.CheckMonotone()
	if !errors.Is(err, ErrNonMonotone) {
		t.Fatalf("got %v", err)
	}
}
