package synth

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"
)

// Golden synthesis manifest: absolute SHA-256 pins of every plane Generate
// renders for all 14 presets at two scaled geometries and one full-size
// frame. The experiments, the codec's golden manifests and the ledger's
// corpora all start from these samples, so a change to the generator — an
// optimisation included — must leave the file untouched. A deliberate change
// to the synthetic content regenerates it with
//
//	go test ./internal/synth -run TestGenerateGolden -update   (make golden)
//
// and the diff of testdata/golden_synth.json is then part of the review.

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_synth.json from the current code")

const goldenPath = "testdata/golden_synth.json"

// goldenGeometries are the scaled sizes pinned per preset: the CI-sized
// test geometry, the default experiment geometry and one 720p frame.
var goldenGeometries = []struct{ w, h, frames int }{
	{96, 64, 12},
	{320, 176, 30},
	{1280, 720, 1},
}

// planeDigests hashes each plane of every frame of seq in display order,
// one digest per plane.
func planeDigests(cfg Config) map[string]string {
	seq := Generate(cfg)
	y, cb, cr := sha256.New(), sha256.New(), sha256.New()
	for _, f := range seq.Frames {
		y.Write(f.Y)
		cb.Write(f.Cb)
		cr.Write(f.Cr)
	}
	return map[string]string{
		"frames": fmt.Sprint(len(seq.Frames)),
		"y":      hex.EncodeToString(y.Sum(nil)),
		"cb":     hex.EncodeToString(cb.Sum(nil)),
		"cr":     hex.EncodeToString(cr.Sum(nil)),
	}
}

func TestGenerateGolden(t *testing.T) {
	geometries := goldenGeometries
	if raceEnabled && !*updateGolden {
		// Under the race detector the two larger geometries cost about 20 s.
		// The renderers' concurrency, scene cuts included, is what it can
		// see, and TestGenerateWorkersAgree drives that on 24-frame clips at
		// 1, 2, 4 and more workers than frames. Plain builds pin all three.
		geometries = geometries[:1]
	}
	got := map[string]map[string]string{}
	for _, p := range Presets {
		for _, g := range geometries {
			key := fmt.Sprintf("%s/%dx%dx%d", p.Name, g.w, g.h, g.frames)
			got[key] = planeDigests(p.ScaleTo(g.w, g.h, g.frames))
		}
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want map[string]map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(geometries) == len(goldenGeometries) && len(want) != len(got) {
		t.Errorf("manifest has %d cases, the generator renders %d", len(want), len(got))
	}
	for key, digests := range got {
		for name, d := range digests {
			if want[key][name] != d {
				t.Errorf("%s %s = %s, manifest has %q", key, name, d, want[key][name])
			}
		}
	}
}
