package synth

// Presets mirrors the 14-sequence Xiph.org suite used in the paper
// (720p, 500-600 frames, 50-60 fps) with synthetic equivalents spanning the
// same content spectrum: talking heads, sports panning, crowd motion, static
// surveillance, noisy handheld footage, and scene-cut heavy material.
//
// The dimensions and lengths here are the full-scale defaults; experiment
// code scales them down with ScaleTo for CI-sized runs.
var Presets = []Config{
	{Name: "crew_like", Seed: 101, W: 1280, H: 720, Frames: 500, FPS: 60, Sprites: 6, SpriteV: 3.0, PanX: 0.2, Texture: 0.7, Noise: 1.5},
	{Name: "parkrun_like", Seed: 102, W: 1280, H: 720, Frames: 504, FPS: 50, Sprites: 8, SpriteV: 5.0, PanX: 2.5, PanY: 0.1, Texture: 1.0, Noise: 2.0},
	{Name: "shields_like", Seed: 103, W: 1280, H: 720, Frames: 504, FPS: 50, Sprites: 3, SpriteV: 1.5, PanX: 1.8, Texture: 0.9, Noise: 1.0},
	{Name: "stockholm_like", Seed: 104, W: 1280, H: 720, Frames: 604, FPS: 60, Sprites: 5, SpriteV: 0.8, PanX: 1.2, Texture: 0.8, Noise: 0.8},
	{Name: "mobcal_like", Seed: 105, W: 1280, H: 720, Frames: 504, FPS: 50, Sprites: 4, SpriteV: 2.2, PanY: 1.0, Texture: 0.9, Noise: 1.2},
	{Name: "news_like", Seed: 106, W: 1280, H: 720, Frames: 500, FPS: 50, Sprites: 2, SpriteV: 0.5, Texture: 0.4, Noise: 0.5},
	{Name: "surveillance_like", Seed: 107, W: 1280, H: 720, Frames: 600, FPS: 50, Sprites: 3, SpriteV: 1.0, Texture: 0.3, Noise: 1.0},
	{Name: "sports_like", Seed: 108, W: 1280, H: 720, Frames: 500, FPS: 60, Sprites: 10, SpriteV: 6.0, PanX: 3.0, Texture: 0.8, Noise: 1.5, Shake: 1.0},
	{Name: "handheld_like", Seed: 109, W: 1280, H: 720, Frames: 500, FPS: 50, Sprites: 4, SpriteV: 2.0, Texture: 0.7, Noise: 3.0, Shake: 2.5},
	{Name: "interview_like", Seed: 110, W: 1280, H: 720, Frames: 550, FPS: 50, Sprites: 2, SpriteV: 0.7, Texture: 0.5, Noise: 0.7, SceneCuts: 3},
	{Name: "crowd_like", Seed: 111, W: 1280, H: 720, Frames: 500, FPS: 60, Sprites: 14, SpriteV: 2.5, Texture: 0.9, Noise: 1.8},
	{Name: "ducks_like", Seed: 112, W: 1280, H: 720, Frames: 500, FPS: 50, Sprites: 7, SpriteV: 1.8, PanX: 0.5, Texture: 1.0, Noise: 2.2},
	{Name: "cityride_like", Seed: 113, W: 1280, H: 720, Frames: 600, FPS: 60, Sprites: 6, SpriteV: 3.5, PanX: 2.0, PanY: 0.5, Texture: 0.8, Noise: 1.2, SceneCuts: 2},
	{Name: "animation_like", Seed: 114, W: 1280, H: 720, Frames: 500, FPS: 50, Sprites: 5, SpriteV: 4.0, Texture: 0.2, Noise: 0.0, SceneCuts: 4},
}

// PresetByName returns the named preset config and whether it exists.
func PresetByName(name string) (Config, bool) {
	for _, p := range Presets {
		if p.Name == name {
			return p, true
		}
	}
	return Config{}, false
}

// ScaleTo returns a copy of cfg with dimensions and length reduced for fast
// experimentation while preserving the motion character: sprite and pan
// speeds are scaled with the resolution so relative motion stays the same.
// Scene cuts are capped at one per 20 frames (frames/20, rounded down), so a
// corpus shorter than 20 frames has no scene cut whatever the preset says.
func (c Config) ScaleTo(w, h, frames int) Config {
	s := c
	scale := float64(w) / float64(c.W)
	s.W, s.H, s.Frames = w, h, frames
	s.SpriteV *= scale
	s.PanX *= scale
	s.PanY *= scale
	s.Shake *= scale
	if s.SceneCuts > frames/20 {
		s.SceneCuts = frames / 20
	}
	return s
}
