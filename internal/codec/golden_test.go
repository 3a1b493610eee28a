package codec

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash/maphash"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"videoapp/internal/frame"
	"videoapp/internal/testcorpus"
)

// The golden corpus and its decode manifest. The corpus is every design
// point of the manifest — four presets, both coders, six tool sets — with
// the encoder's reconstructions and its damaged variants, encoded once per
// test binary on a poisoned frame pool and shared read-only. The decode
// differential and the encoder ≡ decoder check decode each stream once;
// tests that filter the corpus share their verdicts. TestGoldenDecode pins
// absolute SHA-256 digests of the encoder's bitstreams and of every plane
// the decoder produces — clean, bit-flipped at two densities, and truncated
// — plus the records Reanalyze rebuilds. The relative determinism tests
// (serial vs parallel, batch vs streaming) cannot see a kernel change that
// moves both sides together; this can. A deliberate bitstream or
// reconstruction change regenerates the manifest with
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

// goldenCase is one encoded design point with its damaged variants. Cases
// are shared between tests: a test clones what it changes.
type goldenCase struct {
	key    string
	preset string
	source *frame.Sequence
	clean  *Video
	// recs are the encoder's reconstructions of clean in coded order, and
	// recsErr encoderRecsDiff's verdict on them.
	recs    []*frame.Frame
	recsErr error
	flipsLo *Video
	flipsHi *Video
	// truncated is flipsHi with the middle frame's payload cut in half, so
	// the symbol reader is guaranteed to run dry and raise Desynced.
	truncated *Video
	// variants are the streams the decode differential runs (decodeVariants).
	variants []*decodeVariant
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

// goldenCases returns the shared corpus, encoding it on the first call, and
// fails t at its end if t left any case changed.
func goldenCases(t testing.TB) []goldenCase {
	t.Helper()
	return testcorpus.Of(t, goldenKey{}, func(t testing.TB, _ goldenKey) []goldenCase {
		cases, err := encodeGoldenCases(t)
		if err != nil {
			t.Fatal(err)
		}
		for _, gc := range cases {
			for _, dv := range gc.variants {
				for i, f := range dv.v.Frames {
					if f.shared != nil || f.syntax.rec.Load() != nil {
						t.Fatalf("%s %s frame %d left the build with a syntax slot attached", gc.key, dv.name, i)
					}
				}
			}
		}
		return cases
	}, hashCorpus)
}

// goldenKey names the golden corpus, this test binary's one entry.
type goldenKey struct{}

func (goldenKey) String() string { return "golden corpus" }

// encodeGoldenCases encodes every design point of the manifest, each after
// stocking the frame pool with 0xa5-filled frames: a coding tool that read a
// reconstruction sample before writing it would code them into the bits.
func encodeGoldenCases(t testing.TB) ([]goldenCase, error) {
	var out []goldenCase
	for pi, preset := range goldenPresets {
		seq := testSeq(t, preset, goldenW, goldenH, goldenFrames)
		for _, coder := range goldenCoders {
			for ti, tool := range goldenTools {
				p := DefaultParams()
				p.GOPSize = goldenFrames
				p.Entropy = coder
				tool.set(&p)
				key := preset + "/" + coder.String() + "/" + tool.name
				for range 2 * len(seq.Frames) {
					f := frame.MustNew(seq.W(), seq.H())
					f.Fill(0xa5, 0xa5, 0xa5)
					frame.Recycle(f)
				}
				v, recs, err := encodeRecs(seq, p)
				if err != nil {
					return nil, fmt.Errorf("%s: %v", key, err)
				}
				seed := int64(1000*pi + 100*int(coder) + ti)
				gc := goldenCase{
					key:     key,
					preset:  preset,
					source:  seq,
					clean:   v,
					recs:    recs,
					flipsLo: flipPayloadBits(v, seed+1, goldenFlipsLo),
					flipsHi: flipPayloadBits(v, seed+2, goldenFlipsHi),
				}
				_, gc.recsErr = encoderRecsDiff(v, recs)
				gc.truncated = gc.flipsHi.Clone()
				mid := gc.truncated.Frames[len(gc.truncated.Frames)/2]
				mid.Payload = mid.Payload[:len(mid.Payload)/2]
				gc.variants = decodeVariants(gc)
				out = append(out, gc)
			}
		}
	}
	return out, nil
}

// hashCorpus hashes every video of the corpus (every decode variant) — its
// Marshal bytes (payloads and headers), its records and whether a frame has
// a syntax slot attached (a sharing claim or a parse record would let a
// later decode replay instead of parse) — the source planes and the
// encoder's reconstructions.
func hashCorpus(cases []goldenCase, h *maphash.Hash) {
	for _, gc := range cases {
		for _, f := range append(slices.Clip(gc.source.Frames), gc.recs...) {
			h.Write(f.Y)
			h.Write(f.Cb)
			h.Write(f.Cr)
		}
		for _, dv := range gc.variants {
			h.Write(Marshal(dv.v))
			for _, f := range dv.v.Frames {
				for _, r := range f.MBs {
					maphash.WriteComparable(h, r)
				}
				for _, d := range f.Deps {
					maphash.WriteComparable(h, d)
				}
				maphash.WriteComparable(h, f.shared != nil || f.syntax.rec.Load() != nil)
			}
		}
	}
}

func hashBitstream(v *Video) string {
	sum := sha256.Sum256(Marshal(v))
	return hex.EncodeToString(sum[:])
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
	// Macroblocks hash as (X, Y) addresses, whatever form the records keep
	// them in.
	mbCols := int32(v.MBCols())
	for _, f := range v.Frames {
		put(int64(len(f.MBs)))
		for m, r := range f.MBs {
			intra := int64(0)
			if r.Intra {
				intra = 1
			}
			deps := f.MBDeps(m)
			put(int64(r.MB%mbCols), int64(r.MB/mbCols), r.BitStart, int64(r.BitLen), intra, int64(r.QP), int64(len(deps)))
			for _, d := range deps {
				put(int64(d.SrcFrame), int64(d.SrcMB%mbCols), int64(d.SrcMB/mbCols), int64(d.Pixels))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// decodeVariant is one stream of a design point the decode differential
// runs; records also holds Reanalyze to the reference's records. The
// reference decoder's pictures of it, and checkParse's verdict on it
// (parseErr: how DecodeContext's pictures differ), are decoded by the first
// test that asks for them and shared read-only by every test after it.
type decodeVariant struct {
	name    string
	v       *Video
	records bool
	ref     struct {
		once          sync.Once
		seq           *frame.Sequence
		err, parseErr error
	}
}

// reference returns the reference decoder's display-order sequence of dv.
func (dv *decodeVariant) reference(t *testing.T) *frame.Sequence {
	t.Helper()
	dv.ref.once.Do(func() {
		if dv.ref.seq, dv.ref.err = refDecodeSeq(dv.v); dv.ref.err == nil {
			seq, err := DecodeContext(context.Background(), dv.v, DecodeOptions{}, 1)
			if err == nil {
				err = diffPlanes(seq.Frames, dv.ref.seq.Frames)
			}
			dv.ref.parseErr = err
		}
	})
	if dv.ref.err != nil {
		t.Fatalf("%s: reference decode: %v", dv.name, dv.ref.err)
	}
	return dv.ref.seq
}

// isGarbage reports whether dv is one of the random-payload streams.
func (dv *decodeVariant) isGarbage() bool { return strings.HasPrefix(dv.name, "garbage_") }

// decodeVariants are the streams of one design point: the corpus's clean,
// bit-flipped and truncated ones; header tables no encoder writes — slices
// out of raster order (the decoder must clear what it never reaches), a
// frame moved onto another's display slot (the slot it left is unclaimed,
// and a later frame still predicts from the one it covers); and, for
// crew_like, every payload set to all ones, and every inter frame's payload
// replaced with random bytes, which the decoder interprets as uniformly
// random macroblock types, directions, vectors and levels, reaching every
// partition shape and every border case no encoder output does.
func decodeVariants(gc goldenCase) []*decodeVariant {
	out := []*decodeVariant{
		{name: "clean", v: gc.clean, records: true},
		{name: "flips_lo", v: gc.flipsLo, records: true},
		{name: "flips_hi", v: gc.flipsHi, records: true},
		{name: "truncated", v: gc.truncated},
	}
	unraster := gc.flipsLo.Clone()
	for _, f := range unraster.Frames[1:] {
		n := unraster.MBCols() * unraster.MBRows()
		f.SliceMBStart = []int{n / 3, n / 2, n / 4}
		f.SliceByteStart = []int{0, len(f.Payload) / 3, len(f.Payload) / 2}
	}
	out = append(out, &decodeVariant{name: "slices_out_of_raster", v: unraster})
	// Coded frame 1 (the first P or B) takes the display slot of coded frame
	// 0, the I frame everything after predicts from.
	moved := gc.clean.Clone()
	moved.Frames[1].DisplayIdx = moved.Frames[0].DisplayIdx
	out = append(out, &decodeVariant{name: "display_slot_claimed_twice", v: moved})
	if gc.preset == "crew_like" {
		ones := gc.clean.Clone()
		for _, f := range ones.Frames {
			for i := range f.Payload {
				f.Payload[i] = 0xff
			}
		}
		out = append(out, &decodeVariant{name: "all_ones", v: ones})
		for seed := int64(0); seed < 6; seed++ {
			rng := rand.New(rand.NewSource(seed))
			c := gc.clean.Clone()
			for _, f := range c.Frames[1:] {
				rng.Read(f.Payload)
			}
			out = append(out, &decodeVariant{name: fmt.Sprintf("garbage_seed_%d", seed), v: c, records: seed == 0})
		}
	}
	return out
}

// eachVariant runs check on every decode variant that keep accepts, one
// parallel subtest per design point. The tests that call it are the decode
// differential, one production route each; they share each variant's
// reference decode, so the reference decoder runs once per variant in the
// test binary.
func eachVariant(t *testing.T, keep func(*decodeVariant) bool, check func(t *testing.T, what string, dv *decodeVariant)) {
	for _, gc := range goldenCases(t) {
		var dvs []*decodeVariant
		for _, dv := range gc.variants {
			if keep(dv) {
				dvs = append(dvs, dv)
			}
		}
		if len(dvs) == 0 {
			continue
		}
		t.Run(gc.key, func(t *testing.T) {
			t.Parallel()
			for _, dv := range dvs {
				check(t, gc.key+" "+dv.name, dv)
			}
		})
	}
}

// goldenPinned names the digests of the manifest: the decodes of the
// corpus's own streams and the records Reanalyze rebuilds from two of them.
var goldenPinned = map[string]bool{
	"clean": true, "flips_lo": true, "flips_hi": true, "truncated": true,
	"reanalyze_clean": true, "reanalyze_flips_lo": true,
}

// goldenDigests returns the manifest digests of gc: its bitstream and
// records, what DecodeContext and Reanalyze make of its pinned variants, and
// its layered refinement. That each of those agrees with the reference is
// the decode differential's.
func goldenDigests(t *testing.T, gc goldenCase) map[string]string {
	digests := map[string]string{
		"bitstream":       hashBitstream(gc.clean),
		"encoder_records": hashRecords(gc.clean),
	}
	for _, dv := range gc.variants {
		if goldenPinned[dv.name] {
			seq, err := DecodeContext(context.Background(), dv.v, DecodeOptions{}, 1)
			if err != nil {
				t.Fatalf("%s %s: %v", gc.key, dv.name, err)
			}
			digests[dv.name] = hashPlanes(seq.Frames)
		}
		if goldenPinned["reanalyze_"+dv.name] {
			c := dv.v.Clone()
			if err := Reanalyze(c); err != nil {
				t.Fatalf("%s %s: %v", gc.key, dv.name, err)
			}
			digests["reanalyze_"+dv.name] = hashRecords(c)
		}
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
	digests["layered"] = layered()
	rng := rand.New(rand.NewSource(77))
	for i := range lv.Enh {
		lv.Enh[i] = append([]byte(nil), lv.Enh[i]...)
		flipBits(rng, lv.Enh[i], goldenFlipsHi)
	}
	digests["layered_flips_hi"] = layered()
	return digests
}

// readGoldenManifest reads the manifest, and skips t when a source of cases
// is not the one it was made from (floating-point generator on another
// platform?): the codec pins would be meaningless.
func readGoldenManifest(t *testing.T, cases []goldenCase) goldenManifest {
	t.Helper()
	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate with: go test ./internal/codec -run TestGoldenDecode -update)", err)
	}
	var m goldenManifest
	if err := json.Unmarshal(buf, &m); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	for _, gc := range cases {
		if m.Source[gc.preset] != hashPlanes(gc.source.Frames) {
			t.Skipf("synthetic source %s differs from the one the manifest was made from", gc.preset)
		}
	}
	return m
}

// TestGoldenDecode checks the golden corpus against its manifest,
// testdata/golden_decode.json. The design points run in parallel; each
// touches only its own case.
func TestGoldenDecode(t *testing.T) {
	got := goldenManifest{Source: map[string]string{}, Cases: map[string]map[string]string{}}
	var mu sync.Mutex
	t.Run("digests", func(t *testing.T) {
		for _, gc := range goldenCases(t) {
			got.Source[gc.preset] = hashPlanes(gc.source.Frames)
			t.Run(gc.key, func(t *testing.T) {
				t.Parallel()
				digests := goldenDigests(t, gc)
				mu.Lock()
				defer mu.Unlock()
				got.Cases[gc.key] = digests
			})
		}
	})
	if t.Failed() {
		return
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
	want := readGoldenManifest(t, goldenCases(t))
	if len(want.Cases) != len(got.Cases) {
		t.Errorf("manifest has %d cases, code produces %d", len(want.Cases), len(got.Cases))
	}
	for key, digests := range got.Cases {
		if len(digests) != len(want.Cases[key]) {
			t.Errorf("%s: manifest has %d digests, code produces %d", key, len(want.Cases[key]), len(digests))
		}
		for name, h := range digests {
			if w := want.Cases[key][name]; w != h {
				t.Errorf("%s %s: got %s, manifest %s", key, name, h, w)
			}
		}
	}
}
