package codec

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"videoapp/internal/frame"
	"videoapp/internal/synth"
)

// Golden decode manifest: absolute SHA-256 pins of the encoder's bitstreams
// and of every plane the decoder produces from them — clean, bit-flipped at
// two densities, and truncated — plus the records Reanalyze rebuilds. The
// relative determinism tests (serial vs parallel, batch vs streaming) cannot
// see a kernel change that moves both sides together; this can. A deliberate
// bitstream or reconstruction change regenerates the manifest with
//
//	go test ./internal/codec -run TestGoldenDecode -update   (make golden)
//
// and the diff of testdata/golden_decode.json is then part of the review.

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_decode.json from the current code")

const goldenPath = "testdata/golden_decode.json"

var (
	goldenPresets = []string{"crew_like", "parkrun_like", "sports_like", "animation_like"}
	goldenCoders  = []EntropyKind{CABAC, CAVLC}
	goldenTools   = []struct {
		name string
		set  func(*Params)
	}{
		{"default", func(*Params) {}},
		{"halfpel", func(p *Params) { p.HalfPel = true }},
		{"deblock", func(p *Params) { p.Deblock = true }},
		{"bframes2", func(p *Params) { p.BFrames = 2 }},
		{"slices4", func(p *Params) { p.SlicesPerFrame = 4 }},
		{"combined", func(p *Params) {
			p.HalfPel, p.Deblock, p.BFrames, p.BReference, p.SlicesPerFrame = true, true, 2, true, 2
		}},
	}
)

const (
	goldenW, goldenH, goldenFrames = 96, 64, 6
	goldenFlipsLo, goldenFlipsHi   = 1e-3, 1e-2
)

// goldenManifest is the committed file: Source pins the synthetic input (a
// mismatch there means the generator moved, not the codec), Cases maps
// "preset/coder/tool" to its named digests.
type goldenManifest struct {
	Source map[string]string            `json:"source"`
	Cases  map[string]map[string]string `json:"cases"`
}

// goldenCase is one encoded design point with its damaged variants.
type goldenCase struct {
	key     string
	source  *frame.Sequence
	clean   *Video
	flipsLo *Video
	flipsHi *Video
	// truncated is flipsHi with the middle frame's payload cut in half, so
	// the symbol reader is guaranteed to run dry and raise Desynced.
	truncated *Video
}

func goldenSource(t testing.TB, preset string) *frame.Sequence {
	t.Helper()
	cfg, ok := synth.PresetByName(preset)
	if !ok {
		t.Fatalf("unknown preset %q", preset)
	}
	return synth.Generate(cfg.ScaleTo(goldenW, goldenH, goldenFrames))
}

// flipBits flips round(bits·density) (at least one) random bits of buf.
func flipBits(rng *rand.Rand, buf []byte, density float64) {
	bits := len(buf) * 8
	if bits == 0 {
		return
	}
	n := int(float64(bits)*density + 0.5)
	if n < 1 {
		n = 1
	}
	for i := 0; i < n; i++ {
		b := rng.Intn(bits)
		buf[b/8] ^= 1 << uint(7-b%8)
	}
}

// flipPayloadBits returns a clone of v with seeded random bit flips at the
// given density in every frame payload.
func flipPayloadBits(v *Video, seed int64, density float64) *Video {
	c := v.Clone()
	rng := rand.New(rand.NewSource(seed))
	for _, f := range c.Frames {
		flipBits(rng, f.Payload, density)
	}
	return c
}

// goldenCases encodes every design point of the manifest. The damaged
// variants also seed the differential fuzz corpus.
func goldenCases(t testing.TB) []goldenCase {
	t.Helper()
	var out []goldenCase
	for pi, preset := range goldenPresets {
		seq := goldenSource(t, preset)
		for _, coder := range goldenCoders {
			for ti, tool := range goldenTools {
				p := DefaultParams()
				p.GOPSize = goldenFrames
				p.Entropy = coder
				tool.set(&p)
				v, err := encode(seq, p)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", preset, coder, tool.name, err)
				}
				seed := int64(1000*pi + 100*int(coder) + ti)
				gc := goldenCase{
					key:     preset + "/" + coder.String() + "/" + tool.name,
					source:  seq,
					clean:   v,
					flipsLo: flipPayloadBits(v, seed+1, goldenFlipsLo),
					flipsHi: flipPayloadBits(v, seed+2, goldenFlipsHi),
				}
				gc.truncated = gc.flipsHi.Clone()
				mid := gc.truncated.Frames[len(gc.truncated.Frames)/2]
				mid.Payload = mid.Payload[:len(mid.Payload)/2]
				out = append(out, gc)
			}
		}
	}
	return out
}

func hashPlanes(frames []*frame.Frame) string {
	h := sha256.New()
	var dim [8]byte
	for _, f := range frames {
		binary.LittleEndian.PutUint32(dim[:4], uint32(f.W))
		binary.LittleEndian.PutUint32(dim[4:], uint32(f.H))
		h.Write(dim[:])
		h.Write(f.Y)
		h.Write(f.Cb)
		h.Write(f.Cr)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func hashRecords(v *Video) string {
	h := sha256.New()
	put := func(vals ...int64) {
		var b [8]byte
		for _, x := range vals {
			binary.LittleEndian.PutUint64(b[:], uint64(x))
			h.Write(b[:])
		}
	}
	for _, f := range v.Frames {
		put(int64(len(f.MBs)))
		for _, r := range f.MBs {
			intra := int64(0)
			if r.Intra {
				intra = 1
			}
			put(int64(r.MB.X), int64(r.MB.Y), r.BitStart, r.BitLen, intra, int64(r.QP), int64(len(r.Deps)))
			for _, d := range r.Deps {
				put(int64(d.SrcFrame), int64(d.SrcMB.X), int64(d.SrcMB.Y), int64(d.Pixels))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func goldenDigests(t *testing.T, gc goldenCase) map[string]string {
	t.Helper()
	decode := func(v *Video) string {
		seq, err := DecodeContext(context.Background(), v, DecodeOptions{}, 1)
		if err != nil {
			t.Fatalf("%s: decode: %v", gc.key, err)
		}
		return hashPlanes(seq.Frames)
	}
	reanalyze := func(v *Video) string {
		c := v.Clone()
		if err := Reanalyze(c); err != nil {
			t.Fatalf("%s: reanalyze: %v", gc.key, err)
		}
		return hashRecords(c)
	}
	// The SNR-scalable layer shares the residual reader and the
	// reconstruction kernel: pin its refinement too, clean and with the
	// enhancement payloads damaged.
	lv, err := EncodeLayered(gc.source, gc.clean.Params, 6)
	if err != nil {
		t.Fatalf("%s: layered encode: %v", gc.key, err)
	}
	layered := func() string {
		seq, err := DecodeLayered(context.Background(), lv)
		if err != nil {
			t.Fatalf("%s: layered decode: %v", gc.key, err)
		}
		return hashPlanes(seq.Frames)
	}
	layeredClean := layered()
	rng := rand.New(rand.NewSource(77))
	for i := range lv.Enh {
		lv.Enh[i] = append([]byte(nil), lv.Enh[i]...)
		flipBits(rng, lv.Enh[i], goldenFlipsHi)
	}
	sum := sha256.Sum256(Marshal(gc.clean))
	return map[string]string{
		"bitstream":          hex.EncodeToString(sum[:]),
		"encoder_records":    hashRecords(gc.clean),
		"clean":              decode(gc.clean),
		"flips_lo":           decode(gc.flipsLo),
		"flips_hi":           decode(gc.flipsHi),
		"truncated":          decode(gc.truncated),
		"reanalyze_clean":    reanalyze(gc.clean),
		"reanalyze_flips_lo": reanalyze(gc.flipsLo),
		"layered":            layeredClean,
		"layered_flips_hi":   layered(),
	}
}

func TestGoldenDecode(t *testing.T) {
	got := goldenManifest{Source: map[string]string{}, Cases: map[string]map[string]string{}}
	for _, preset := range goldenPresets {
		got.Source[preset] = hashPlanes(goldenSource(t, preset).Frames)
	}
	for _, gc := range goldenCases(t) {
		got.Cases[gc.key] = goldenDigests(t, gc)
	}
	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d cases)", goldenPath, len(got.Cases))
		return
	}
	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate with: go test ./internal/codec -run TestGoldenDecode -update)", err)
	}
	var want goldenManifest
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	for preset, h := range got.Source {
		if want.Source[preset] != h {
			t.Skipf("synthetic source %s differs from the one the manifest was made from (floating-point generator on another platform?); the codec pins below would be meaningless", preset)
		}
	}
	if len(want.Cases) != len(got.Cases) {
		t.Errorf("manifest has %d cases, code produces %d", len(want.Cases), len(got.Cases))
	}
	for key, digests := range got.Cases {
		for name, h := range digests {
			if w := want.Cases[key][name]; w != h {
				t.Errorf("%s %s: got %s, manifest %s", key, name, h, w)
			}
		}
	}
}
