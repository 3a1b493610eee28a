package codec

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"videoapp/internal/frame"
	"videoapp/internal/obs"
)

// Tests of the parse record (syntax.go): replaying a record must be
// indistinguishable from parsing, a record must never be believed for bytes
// it was not made of, and nothing but ShareSyntax may connect two frames.

// replayed counts codec_frames_replayed events.
func replayed(m *obs.Metrics) int { return int(m.Snapshot().CounterTotal(obs.CtrFramesReplayed)) }

// shareWithSelf makes every frame of v its own syntax holder, so the first
// decode records and later ones replay.
func shareWithSelf(v *Video) {
	for _, f := range v.Frames {
		f.ShareSyntax(f.SyntaxSlot())
	}
}

// checkReplayEqualsParse decodes v three ways — parsing (a Clone carries no
// syntax), recording, and replaying the record — and requires the same
// planes, with the replay counter saying which was which.
func checkReplayEqualsParse(t *testing.T, what string, v *Video) {
	t.Helper()
	want, err := decodeCoded(v.Clone(), nil, 1)
	if err != nil {
		return
	}
	c := v.Clone()
	shareWithSelf(c)
	m := obs.NewMetrics()
	rec, err := decodeCoded(c, m, 1)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	comparePlanes(t, what+" (recording)", rec, want)
	if n := replayed(m); n != 0 {
		t.Fatalf("%s: %d frames replayed before any record existed", what, n)
	}
	rep, err := decodeCoded(c, m, 1)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	comparePlanes(t, what+" (replay)", rep, want)
	if n := replayed(m); n != len(c.Frames) {
		t.Fatalf("%s: %d of %d frames replayed on the second decode", what, n, len(c.Frames))
	}
}

// TestReplayEqualsParseGolden: every stream of the golden decode manifest —
// clean, both flip densities, truncated; both coders; slices, B frames,
// half-pel, deblocking — and uniformly random payloads. A record of garbage
// must replay to the same garbage.
func TestReplayEqualsParseGolden(t *testing.T) {
	for _, gc := range goldenCases(t) {
		checkReplayEqualsParse(t, gc.key+" clean", gc.clean)
		checkReplayEqualsParse(t, gc.key+" flips_lo", gc.flipsLo)
		checkReplayEqualsParse(t, gc.key+" flips_hi", gc.flipsHi)
		checkReplayEqualsParse(t, gc.key+" truncated", gc.truncated)
		if !strings.HasPrefix(gc.key, "crew_like/") {
			continue
		}
		for seed := int64(0); seed < 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			c := gc.clean.Clone()
			for _, f := range c.Frames[1:] {
				rng.Read(f.Payload)
			}
			checkReplayEqualsParse(t, fmt.Sprintf("%s garbage seed %d", gc.key, seed), c)
		}
	}
}

// TestReplayPublishesResync: the per-slice desync events of a damaged stream
// are part of the record, so a replay reports what the parse reported.
func TestReplayPublishesResync(t *testing.T) {
	for _, gc := range goldenCases(t) {
		if !strings.HasSuffix(gc.key, "/slices4") {
			continue
		}
		c := gc.truncated.Clone()
		shareWithSelf(c)
		var counts [2]int64
		for pass := range counts {
			m := obs.NewMetrics()
			if _, err := decodeCoded(c, m, 1); err != nil {
				t.Fatal(err)
			}
			counts[pass] = m.Snapshot().CounterTotal(obs.CtrResync)
		}
		if counts[0] == 0 || counts[0] != counts[1] {
			t.Fatalf("%s: %d resync events parsing, %d replaying", gc.key, counts[0], counts[1])
		}
	}
}

// recorded decodes a self-sharing clone of v once, leaving a record on every
// frame, and returns it with its clean planes.
func recorded(t *testing.T, v *Video) (*Video, []*frame.Frame) {
	t.Helper()
	c := v.Clone()
	shareWithSelf(c)
	clean, err := decodeCoded(c, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range c.Frames {
		if f.syntax.Bytes() == 0 {
			t.Fatalf("frame %d: no record after the first decode of a sharing frame", i)
		}
	}
	return c, clean
}

// TestRecordNeverOutlivesAByteChange: whatever copies or rebuilds a frame
// drops the record and the sharing, and a frame that wrongly claims to share
// — its bytes were changed after the claim, or under an existing record — is
// caught by the checksum and parsed.
func TestRecordNeverOutlivesAByteChange(t *testing.T) {
	v := testVideo(t)
	src, clean := recorded(t, v)

	unmarshalled, err := Unmarshal(Marshal(src))
	if err != nil {
		t.Fatal(err)
	}
	pooled := src.ClonePooled()
	defer pooled.Release()
	for name, c := range map[string]*Video{"Clone": src.Clone(), "ClonePooled": pooled, "Unmarshal(Marshal)": unmarshalled} {
		for i, f := range c.Frames {
			if f.syntax.Bytes() != 0 || f.shared != nil {
				t.Fatalf("%s: frame %d carries a record or a sharing claim", name, i)
			}
		}
		m := obs.NewMetrics()
		got, err := decodeCoded(c, m, 1)
		if err != nil {
			t.Fatal(err)
		}
		comparePlanes(t, name, got, clean)
		if n := replayed(m); n != 0 {
			t.Fatalf("%s: %d frames replayed; a copy must parse", name, n)
		}
	}

	// A clone that claims to share and is then flipped by hand: every frame
	// parses, and decodes to what the flipped bytes say.
	flipped := src.Clone()
	for i, f := range flipped.Frames {
		f.ShareSyntax(src.Frames[i].SyntaxSlot())
		f.Payload[len(f.Payload)/2] ^= 0x10
	}
	want, err := decodeCoded(flipped.Clone(), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := obs.NewMetrics()
	got, err := decodeCoded(flipped, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	comparePlanes(t, "hand-flipped sharing clone", got, want)
	if n := replayed(m); n != 0 {
		t.Fatalf("hand-flipped sharing clone: %d frames replayed", n)
	}
	// That decode recorded the flipped bytes' parse on src; src's own bytes
	// no longer match it and must parse again, to the clean planes.
	got, err = decodeCoded(src, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	comparePlanes(t, "holder after a foreign record", got, clean)
	if n := replayed(m); n != 0 {
		t.Fatalf("holder after a foreign record: %d frames replayed", n)
	}

	// An in-place flip of an already-recorded payload.
	src2, _ := recorded(t, v)
	src2.Frames[1].Payload[3] ^= 0x01
	src2.Frames[4].SliceByteStart[0]++
	want, err = decodeCoded(src2.Clone(), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	m = obs.NewMetrics()
	got, err = decodeCoded(src2, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	comparePlanes(t, "in-place flip under a record", got, want)
	if n, want := replayed(m), len(src2.Frames)-2; n != want {
		t.Fatalf("in-place flip under a record: %d frames replayed, want %d (all but the two changed)", n, want)
	}
}

// TestShareSyntaxAcrossVideos is the sharing the store does: clones of one
// video point at its frames, the first decode records there, every later
// clone replays, and the original itself never does.
func TestShareSyntaxAcrossVideos(t *testing.T) {
	v := testVideo(t)
	clean, err := decodeCoded(v, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := obs.NewMetrics()
	for trip := 0; trip < 3; trip++ {
		c := v.ClonePooled()
		for i, f := range c.Frames {
			f.ShareSyntax(v.Frames[i].SyntaxSlot())
		}
		got, err := decodeCoded(c, m, 1)
		if err != nil {
			t.Fatal(err)
		}
		comparePlanes(t, fmt.Sprintf("trip %d", trip), got, clean)
		if n, want := replayed(m), trip*len(v.Frames); n != want {
			t.Fatalf("after trip %d: %d frames replayed, want %d", trip, n, want)
		}
		// A clone of a sharing clone shares with the original, not with the
		// pooled slot that is about to be recycled.
		cc := c.Clone()
		cc.Frames[0].ShareSyntax(c.Frames[0].SyntaxSlot())
		if cc.Frames[0].shared != &v.Frames[0].syntax {
			t.Fatal("sharing with a sharing frame must resolve to its holder")
		}
		c.Release()
	}
	before := replayed(m)
	if _, err := decodeCoded(v, m, 1); err != nil {
		t.Fatal(err)
	}
	if replayed(m) != before {
		t.Fatal("the holder shares with nobody and must parse")
	}
}

// TestReplayKeyedOnParseConditions: the same bytes parse differently without
// a reference (inter types collapse to intra), and recording mode needs bit positions no record holds. Each must agree with
// its record-free result whatever record is lying around.
func TestReplayKeyedOnParseConditions(t *testing.T) {
	var gc goldenCase
	for _, c := range goldenCases(t) {
		if c.key == "crew_like/CABAC/bframes2" {
			gc = c
		}
	}
	plain := gc.flipsLo
	shared, _ := recorded(t, plain) // records made with references present

	// DecodeSingle against missing and substituted references.
	cleanRecs, err := decodeCoded(plain, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	other, err := decodeCoded(gc.flipsHi, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	for idx := range plain.Frames {
		for name, refs := range map[string][]*frame.Frame{
			"nil references":         make([]*frame.Frame, len(plain.Frames)),
			"substituted references": other,
			"own references":         cleanRecs,
		} {
			want := DecodeSingle(plain.Clone(), idx, refs)
			for pass := 0; pass < 2; pass++ { // the first may record under this key, the second replays it
				got := DecodeSingle(shared, idx, refs)
				comparePlanes(t, fmt.Sprintf("DecodeSingle frame %d, %s, pass %d", idx, name, pass), []*frame.Frame{got}, []*frame.Frame{want})
			}
		}
	}

	// Reanalyze of a video whose every frame has a record.
	a, b := plain.Clone(), shared
	if err := Reanalyze(a); err != nil {
		t.Fatal(err)
	}
	if err := Reanalyze(b); err != nil {
		t.Fatal(err)
	}
	for i := range a.Frames {
		if !reflect.DeepEqual(a.Frames[i].MBs, b.Frames[i].MBs) {
			t.Fatalf("Reanalyze records of frame %d differ when a parse record exists", i)
		}
	}
}

// TestSyntaxStreamRoundTrip drives appendMB/readMB directly over extreme
// values of every field.
func TestSyntaxStreamRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var mbs []mbSyntax
	for i := 0; i < 400; i++ {
		var s mbSyntax
		s.setType(rng.Intn(numMBTypes))
		s.qp = rng.Intn(64)
		s.mode = 0
		if s.mbType == mbIntra {
			s.mode = 3
		} else {
			for j := range s.motion.rects {
				s.motion.dirs[j] = rng.Intn(3)
				mv := func() (v [2]int16) {
					for k := range v {
						v[k] = [...]int16{-64, -1, 0, 1, 63, 64}[rng.Intn(6)]
					}
					return
				}
				if f := mv(); s.motion.dirs[j] != dirBwd {
					s.motion.mvF[j].X, s.motion.mvF[j].Y = f[0], f[1]
				}
				if b := mv(); s.motion.dirs[j] != dirFwd {
					s.motion.mvB[j].X, s.motion.mvB[j].Y = b[0], b[1]
				}
			}
		}
		if s.mbType != mbSkip {
			s.res.nz = uint32(rng.Intn(1 << mbBlocks))
			for b := range s.res.blocks {
				if s.res.nz&(1<<uint(b)) == 0 {
					continue
				}
				for k := 0; k < rng.Intn(17); k++ {
					s.res.blocks[b][rng.Intn(16)] = [...]int32{-1 << 15, -300, -1, 0, 1, 63, 64, 1 << 15}[rng.Intn(8)]
				}
			}
		}
		mbs = append(mbs, s)
	}
	var data []byte
	for i := range mbs {
		data = appendMB(data, &mbs[i])
	}
	r := syntaxReader{data: data}
	var got mbSyntax
	for i := range mbs {
		// Stale state of an earlier macroblock must not leak through.
		for b := range got.res.blocks {
			got.res.blocks[b][5] = 77
		}
		r.readMB(&got)
		want := &mbs[i]
		if got.mbType != want.mbType {
			t.Fatalf("mb %d: type %d, want %d", i, got.mbType, want.mbType)
		}
		if got.qp != want.qp || got.res.nz != want.res.nz {
			t.Fatalf("mb %d: qp %d nz %x, want %d %x", i, got.qp, got.res.nz, want.qp, want.res.nz)
		}
		if want.mbType == mbIntra {
			if got.mode != want.mode {
				t.Fatalf("mb %d: intra mode %d, want %d", i, got.mode, want.mode)
			}
		} else if !reflect.DeepEqual(got.motion, want.motion) {
			t.Fatalf("mb %d: motion %+v, want %+v", i, got.motion, want.motion)
		}
		for b := range want.res.blocks {
			if want.res.nz&(1<<uint(b)) != 0 && got.res.blocks[b] != want.res.blocks[b] {
				t.Fatalf("mb %d block %d: levels %v, want %v", i, b, got.res.blocks[b], want.res.blocks[b])
			}
		}
	}
	if r.pos != len(data) {
		t.Fatalf("reader stopped at %d of %d bytes", r.pos, len(data))
	}
}
