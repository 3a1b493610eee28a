package synth

import (
	"bytes"
	"testing"

	"videoapp/internal/frame"
)

func small(name string) Config {
	cfg, ok := PresetByName(name)
	if !ok {
		panic("unknown preset " + name)
	}
	return cfg.ScaleTo(64, 48, 10)
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(small("parkrun_like"))
	b := Generate(small("parkrun_like"))
	if len(a.Frames) != 10 || len(b.Frames) != 10 {
		t.Fatal("frame count")
	}
	for i := range a.Frames {
		for j := range a.Frames[i].Y {
			if a.Frames[i].Y[j] != b.Frames[i].Y[j] {
				t.Fatalf("frame %d pixel %d differs between identical configs", i, j)
			}
		}
	}
}

func TestPresetsDistinct(t *testing.T) {
	a := Generate(small("parkrun_like"))
	b := Generate(small("news_like"))
	same := 0
	for j := range a.Frames[0].Y {
		if a.Frames[0].Y[j] == b.Frames[0].Y[j] {
			same++
		}
	}
	if same > len(a.Frames[0].Y)/2 {
		t.Fatal("different presets must render different content")
	}
}

func TestFramesChangeOverTime(t *testing.T) {
	seq := Generate(small("sports_like"))
	diff := 0
	for j := range seq.Frames[0].Y {
		if seq.Frames[0].Y[j] != seq.Frames[5].Y[j] {
			diff++
		}
	}
	if diff < len(seq.Frames[0].Y)/20 {
		t.Fatal("motion preset must actually move")
	}
}

func TestStaticPresetMostlyStatic(t *testing.T) {
	cfg := small("news_like")
	cfg.Sprites = 0
	cfg.Noise = 0
	cfg.Shake = 0
	cfg.PanX, cfg.PanY = 0, 0
	seq := Generate(cfg)
	for j := range seq.Frames[0].Y {
		if seq.Frames[0].Y[j] != seq.Frames[9].Y[j] {
			t.Fatal("fully static config must produce identical frames")
		}
	}
}

func TestAllPresetsValidGeometry(t *testing.T) {
	if len(Presets) != 14 {
		t.Fatalf("suite has %d sequences, want 14 as in the paper", len(Presets))
	}
	seen := map[string]bool{}
	for _, p := range Presets {
		if seen[p.Name] {
			t.Fatalf("duplicate preset %q", p.Name)
		}
		seen[p.Name] = true
		if p.W%frame.MBSize != 0 || p.H%frame.MBSize != 0 {
			t.Fatalf("%s: dimensions not MB aligned", p.Name)
		}
		if p.Frames < 500 || p.Frames > 604 {
			t.Fatalf("%s: %d frames outside the paper's 500-600 range", p.Name, p.Frames)
		}
		if p.FPS != 50 && p.FPS != 60 {
			t.Fatalf("%s: fps %d", p.Name, p.FPS)
		}
	}
}

func TestPresetByNameUnknown(t *testing.T) {
	if _, ok := PresetByName("nope"); ok {
		t.Fatal("unknown preset must not resolve")
	}
}

func TestScaleToPreservesRelativeMotion(t *testing.T) {
	cfg, _ := PresetByName("parkrun_like")
	s := cfg.ScaleTo(320, 180, 50)
	if s.W != 320 || s.H != 180 || s.Frames != 50 {
		t.Fatal("dims")
	}
	wantPan := cfg.PanX * 320 / 1280
	if s.PanX != wantPan {
		t.Fatalf("pan %v, want %v", s.PanX, wantPan)
	}
}

func TestSceneCutChangesContent(t *testing.T) {
	cfg := small("animation_like")
	cfg.SceneCuts = 1
	cfg.Noise = 0
	seq := Generate(cfg)
	// The cut is at frame 5; frames 4 and 5 should differ substantially.
	diff := 0
	for j := range seq.Frames[4].Y {
		d := int(seq.Frames[4].Y[j]) - int(seq.Frames[5].Y[j])
		if d < -4 || d > 4 {
			diff++
		}
	}
	if diff < len(seq.Frames[4].Y)/20 {
		t.Fatalf("scene cut changed only %d pixels", diff)
	}
}

func BenchmarkGenerateQCIFFrame(b *testing.B) {
	b.ReportAllocs()
	cfg, _ := PresetByName("crew_like")
	cfg = cfg.ScaleTo(176, 144, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Generate(cfg)
	}
}

// Frames are rendered concurrently and emitted in order; the samples must
// not depend on how many renderers run, including more renderers than
// frames. 24 frames give the scene-cut presets one cut.
func TestGenerateWorkersAgree(t *testing.T) {
	for _, p := range Presets {
		cfg := p.ScaleTo(64, 48, 24)
		want := generate(cfg, 1)
		for _, workers := range []int{2, 4, cfg.Frames + 5} {
			got := generate(cfg, workers)
			if len(got.Frames) != len(want.Frames) {
				t.Fatalf("%s workers=%d: %d frames, want %d", p.Name, workers, len(got.Frames), len(want.Frames))
			}
			for i, f := range got.Frames {
				w := want.Frames[i]
				if !bytes.Equal(f.Y, w.Y) || !bytes.Equal(f.Cb, w.Cb) || !bytes.Equal(f.Cr, w.Cr) {
					t.Fatalf("%s workers=%d: frame %d differs from the one-worker rendering", p.Name, workers, i)
				}
			}
		}
	}
}

// A geometry the frame type cannot hold panics on the caller's goroutine,
// where it can be recovered, not inside a renderer.
func TestGenerateRejectsBadGeometry(t *testing.T) {
	for _, wh := range [][2]int{{100, 64}, {64, 50}, {0, 48}} {
		cfg := small("crew_like")
		cfg.W, cfg.H = wh[0], wh[1]
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Generate(%dx%d) did not panic", cfg.W, cfg.H)
				}
			}()
			Generate(cfg)
		}()
	}
}

func TestGenerateNoFrames(t *testing.T) {
	cfg := small("crew_like")
	cfg.Frames = 0
	if seq := Generate(cfg); len(seq.Frames) != 0 || seq.Name != "crew_like" {
		t.Fatalf("zero-frame config rendered %d frames named %q", len(seq.Frames), seq.Name)
	}
}
