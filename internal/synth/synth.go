// Package synth generates deterministic synthetic raw video sequences that
// stand in for the 14 Xiph.org test sequences used in the paper (which are
// not redistributable here). Each preset combines a textured background,
// camera pan, moving sprites, sensor noise and optional scene cuts so that
// the encoded streams exhibit the motion/texture diversity — and hence the
// dependency-graph diversity — the experiments rely on.
//
// Generate renders whole frames concurrently on GOMAXPROCS goroutines, and
// its output is identical at any GOMAXPROCS: every sample is a function of
// the configuration alone (testdata/golden_synth.json pins them).
package synth

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"

	"videoapp/internal/frame"
	"videoapp/internal/par"
)

// Config describes one synthetic sequence.
type Config struct {
	Name      string
	Seed      int64
	W, H      int     // luma dimensions, multiples of 16
	Frames    int     // number of frames
	FPS       int     // frame rate
	Sprites   int     // number of moving objects
	SpriteV   float64 // max sprite speed, pixels/frame
	PanX      float64 // background pan, pixels/frame
	PanY      float64
	Texture   float64 // background texture amplitude 0..1
	Noise     float64 // per-pixel sensor noise sigma (luma levels)
	SceneCuts int     // number of hard scene changes
	Shake     float64 // camera shake amplitude, pixels
}

// sprite is one moving object with its own texture phase.
type sprite struct {
	x, y, vx, vy float64
	w, h         int
	base         uint8
	phase        float64
	ellipse      bool
}

// Generate renders the configured sequence. W and H must be positive
// multiples of frame.MBSize; Generate panics on the caller's goroutine
// otherwise, before any rendering starts.
//
// Frames are rendered concurrently on GOMAXPROCS goroutines and the output
// is identical at any GOMAXPROCS: one producer advances everything that
// carries state from frame to frame — sprite motion, scene cuts and the
// per-pixel sensor noise, the only consumer of the seeded RNG — in frame
// order, and each frame is then a pure function of that state.
func Generate(cfg Config) *frame.Sequence {
	return generate(cfg, runtime.GOMAXPROCS(0))
}

// frameState is what the producer hands to a renderer: frame t's scene,
// its sprites, its noise and the shared background of a scene whose
// background cannot move.
type frameState struct {
	t, scene int
	sprites  []sprite
	noise    []float64 // rng.NormFloat64()*cfg.Noise per pixel in raster order; nil without noise
	still    *stillField
}

// stillField is the background of one scene of a configuration without pan
// or shake: every frame of the scene samples the same field, so the first
// frame to need it computes it for all of them.
type stillField struct {
	once sync.Once
	v    []float64
}

// generate is Generate with frames rendered on up to workers goroutines.
func generate(cfg Config, workers int) *frame.Sequence {
	if cfg.W <= 0 || cfg.H <= 0 || cfg.W%frame.MBSize != 0 || cfg.H%frame.MBSize != 0 {
		panic(fmt.Sprintf("synth: %s: dimensions %dx%d must be positive multiples of %d", cfg.Name, cfg.W, cfg.H, frame.MBSize))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	sprites := make([]sprite, cfg.Sprites)
	for i := range sprites {
		sprites[i] = sprite{
			x:       rng.Float64() * float64(cfg.W),
			y:       rng.Float64() * float64(cfg.H),
			vx:      (rng.Float64()*2 - 1) * cfg.SpriteV,
			vy:      (rng.Float64()*2 - 1) * cfg.SpriteV,
			w:       16 + rng.Intn(cfg.W/4+1),
			h:       16 + rng.Intn(cfg.H/4+1),
			base:    uint8(64 + rng.Intn(160)),
			phase:   rng.Float64() * 100,
			ellipse: rng.Intn(2) == 0,
		}
	}
	cutAt := map[int]bool{}
	for i := 1; i <= cfg.SceneCuts; i++ {
		cutAt[i*cfg.Frames/(cfg.SceneCuts+1)] = true
	}
	var still *stillField
	if cfg.PanX == 0 && cfg.PanY == 0 && cfg.Shake == 0 {
		still = &stillField{}
	}

	// free recycles noise buffers: at most workers+2 frames are between
	// next and emit.
	free := make(chan []float64, workers+2)
	t, scene := 0, 0
	next := func(context.Context) (frameState, bool, error) {
		if t >= cfg.Frames {
			return frameState{}, false, nil
		}
		if cutAt[t] {
			scene++
			for i := range sprites {
				sprites[i].x = rng.Float64() * float64(cfg.W)
				sprites[i].y = rng.Float64() * float64(cfg.H)
				sprites[i].base = uint8(64 + rng.Intn(160))
			}
			if still != nil {
				still = &stillField{}
			}
		}
		st := frameState{t: t, scene: scene, sprites: slices.Clone(sprites), still: still}
		if cfg.Noise > 0 {
			select {
			case st.noise = <-free:
			default:
				st.noise = make([]float64, cfg.W*cfg.H)
			}
			for i := range st.noise {
				st.noise[i] = rng.NormFloat64() * cfg.Noise
			}
		}
		for i := range sprites {
			s := &sprites[i]
			s.x += s.vx
			s.y += s.vy
			if s.x < -float64(s.w) {
				s.x = float64(cfg.W)
			}
			if s.x > float64(cfg.W) {
				s.x = -float64(s.w)
			}
			if s.y < -float64(s.h) {
				s.y = float64(cfg.H)
			}
			if s.y > float64(cfg.H) {
				s.y = -float64(s.h)
			}
		}
		t++
		return st, true, nil
	}
	render := func(_ context.Context, _ int, st frameState) (*frame.Frame, error) {
		f := renderFrame(cfg, st)
		if st.noise != nil {
			select {
			case free <- st.noise:
			default:
			}
		}
		return f, nil
	}
	seq := &frame.Sequence{Name: cfg.Name, FPS: cfg.FPS}
	emit := func(f *frame.Frame) error {
		seq.Frames = append(seq.Frames, f)
		return nil
	}
	//vetvideoapp:allow ctxfirst — rendering is bounded CPU work with no caller context to honour; nothing in it can fail or be cancelled
	if err := par.MapOrdered(context.Background(), workers, "synth", "frame", next, render, emit); err != nil {
		panic(err) // unreachable: no stage returns an error
	}
	return seq
}

// footprint is one sprite's extent in a frame: the columns [x0, x1) and rows
// [y0, y1) where 0 <= dx < w and 0 <= dy < h, with the texture sine and the
// ellipse coordinate of each covered column.
type footprint struct {
	s      *sprite
	x0, x1 int
	y0, y1 int
	sin    []float64 // math.Sin((dx+phase)*0.4) at column x0+j
	nx     []float64 // dx/w*2 - 1 at column x0+j
}

// rowHit is a sprite footprint on one row, with that row's texture cosine
// and ellipse coordinate.
type rowHit struct {
	*footprint
	cos, ny float64
}

// span returns the integers i in [0, n) with 0 <= float64(i)-pos < size, a
// contiguous range since float64(i)-pos grows with i.
func span(pos float64, size, n int) (lo, hi int) {
	for lo < n && float64(lo)-pos < 0 {
		lo++
	}
	hi = lo
	for hi < n && float64(hi)-pos < float64(size) {
		hi++
	}
	return lo, hi
}

// renderFrame renders frame st.t. Per pixel the sample is the last sprite
// covering it, or the background where none does, plus the frame's noise.
func renderFrame(cfg Config, st frameState) *frame.Frame {
	f := frame.MustNew(cfg.W, cfg.H)
	t := st.t
	shakeX := cfg.Shake * math.Sin(float64(t)*1.7)
	shakeY := cfg.Shake * math.Cos(float64(t)*2.3)
	panX := cfg.PanX*float64(t) + shakeX
	panY := cfg.PanY*float64(t) + shakeY
	sceneShift := float64(st.scene) * 37.0

	feet := make([]footprint, 0, len(st.sprites))
	for i := range st.sprites {
		s := &st.sprites[i]
		fp := footprint{s: s}
		fp.x0, fp.x1 = span(s.x, s.w, cfg.W)
		fp.y0, fp.y1 = span(s.y, s.h, cfg.H)
		if fp.x0 == fp.x1 || fp.y0 == fp.y1 {
			continue
		}
		fp.sin = make([]float64, fp.x1-fp.x0)
		fp.nx = make([]float64, fp.x1-fp.x0)
		for j := range fp.sin {
			dx := float64(fp.x0+j) - s.x
			fp.sin[j] = math.Sin((dx + s.phase) * 0.4)
			fp.nx[j] = dx/float64(s.w)*2 - 1
		}
		feet = append(feet, fp)
	}
	var still []float64
	if st.still != nil {
		still = st.still.field(cfg, panX, panY, sceneShift)
	}

	hits := make([]rowHit, 0, len(feet))
	for y := 0; y < cfg.H; y++ {
		hits = hits[:0]
		for i := range feet {
			fp := &feet[i]
			if y < fp.y0 || y >= fp.y1 {
				continue
			}
			dy := float64(y) - fp.s.y
			hits = append(hits, rowHit{footprint: fp, cos: math.Cos(dy * 0.3), ny: dy/float64(fp.s.h)*2 - 1})
		}
		row := f.Y[y*cfg.W : (y+1)*cfg.W]
		wy := float64(y) + panY
		for x := range row {
			v, covered := spriteSample(hits, x)
			if !covered {
				if still != nil {
					v = still[y*cfg.W+x]
				} else {
					wx := float64(x) + panX + sceneShift
					v = background(wx, wy, cfg.Texture)
				}
			}
			if st.noise != nil {
				v += st.noise[y*cfg.W+x]
			}
			row[x] = frame.ClampU8(int(v))
		}
	}
	// Chroma: smooth field derived from position and scene, subsampled. Cb
	// varies only along a row and Cr only down a column.
	cw, ch := cfg.W/2, cfg.H/2
	cb := f.Cb[:cw]
	for x := range cb {
		cb[x] = frame.ClampU8(128 + int(24*math.Sin((float64(x)+panX+sceneShift)*0.02)))
	}
	for y := 1; y < ch; y++ {
		copy(f.Cb[y*cw:(y+1)*cw], cb)
	}
	for y := 0; y < ch; y++ {
		cr := frame.ClampU8(128 + int(24*math.Cos((float64(y)+panY)*0.02)))
		row := f.Cr[y*cw : (y+1)*cw]
		for x := range row {
			row[x] = cr
		}
	}
	return f
}

// spriteSample is the sample of the last sprite in hits that covers column
// x: sprites are tested last to first, so the first hit wins.
func spriteSample(hits []rowHit, x int) (float64, bool) {
	for k := len(hits) - 1; k >= 0; k-- {
		h := &hits[k]
		if x < h.x0 || x >= h.x1 {
			continue
		}
		j := x - h.x0
		if h.s.ellipse {
			nx := h.nx[j]
			if nx*nx+h.ny*h.ny > 1 {
				continue
			}
		}
		tex := 20 * h.sin[j] * h.cos
		return float64(h.s.base) + tex, true
	}
	return 0, false
}

// field returns the scene's background, computing it on first use from the
// pan and scene shift of the frame asking; with no pan or shake those are
// the same for every frame of the scene.
func (s *stillField) field(cfg Config, panX, panY, sceneShift float64) []float64 {
	s.once.Do(func() {
		s.v = make([]float64, cfg.W*cfg.H)
		for y := 0; y < cfg.H; y++ {
			wy := float64(y) + panY
			for x := 0; x < cfg.W; x++ {
				wx := float64(x) + panX + sceneShift
				s.v[y*cfg.W+x] = background(wx, wy, cfg.Texture)
			}
		}
	})
	return s.v
}

// background combines three incommensurate sinusoids into a stable textured
// field — a cheap deterministic stand-in for natural image texture.
func background(x, y, amp float64) float64 {
	v := 110.0
	v += amp * 35 * math.Sin(x*0.071+y*0.033)
	v += amp * 22 * math.Sin(x*0.013-y*0.057)
	v += amp * 12 * math.Sin((x+y)*0.151)
	return v
}
