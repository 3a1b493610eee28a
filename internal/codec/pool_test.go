package codec

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// testVideo is a clone of the golden design point with every tool: B
// frames, half-pel vectors, deblocking and two slices per frame.
func testVideo(t testing.TB) *Video {
	t.Helper()
	for _, gc := range goldenCases(t) {
		if strings.HasSuffix(gc.key, "/combined") {
			return gc.clean.Clone()
		}
	}
	panic("the golden corpus has no combined design point")
}

func assertVideoEqual(t *testing.T, a, b *Video) {
	t.Helper()
	if len(a.Frames) != len(b.Frames) {
		t.Fatalf("frame count %d vs %d", len(a.Frames), len(b.Frames))
	}
	for i, fa := range a.Frames {
		fb := b.Frames[i]
		if !bytes.Equal(fa.Payload, fb.Payload) {
			t.Fatalf("frame %d payload differs", i)
		}
		if len(fa.MBs) != len(fb.MBs) {
			t.Fatalf("frame %d MB count differs", i)
		}
		for m := range fa.MBs {
			if fa.MBs[m].BitStart != fb.MBs[m].BitStart || fa.MBs[m].BitLen != fb.MBs[m].BitLen {
				t.Fatalf("frame %d MB %d bit range differs", i, m)
			}
		}
		for s := range fa.SliceMBStart {
			if fa.SliceMBStart[s] != fb.SliceMBStart[s] || fa.SliceByteStart[s] != fb.SliceByteStart[s] {
				t.Fatalf("frame %d slice tables differ", i)
			}
		}
		if fa.Type != fb.Type || fa.BaseQP != fb.BaseQP || fa.RefFwd != fb.RefFwd || fa.RefBwd != fb.RefBwd {
			t.Fatalf("frame %d header differs", i)
		}
	}
}

// TestClonePooledBitIdentical proves a pooled clone equals a plain clone, and
// that reuse through Release leaves no residue from the previous occupant.
func TestClonePooledBitIdentical(t *testing.T) {
	v := testVideo(t)
	plain := v.Clone()
	assertVideoEqual(t, v, plain)

	pooled := v.ClonePooled()
	assertVideoEqual(t, v, pooled)

	// Mutate the pooled copy; the original and plain clone must not move.
	for _, f := range pooled.Frames {
		for i := range f.Payload {
			f.Payload[i] ^= 0xff
		}
	}
	assertVideoEqual(t, v, plain)

	// Recycle, clone again: the arena comes back dirty and must be fully
	// overwritten.
	pooled.Release()
	again := v.ClonePooled()
	assertVideoEqual(t, v, again)
	again.Release()

	// Double release and releasing a plain clone are no-ops.
	again.Release()
	plain.Release()
	if plain.Frames == nil {
		t.Fatal("releasing a non-pooled clone must not detach its frames")
	}
}

// TestClonePooledNoSliceBleed verifies the three-index subslices: appending
// to one frame's slices must never overwrite a neighbouring frame's data in
// the shared arena.
func TestClonePooledNoSliceBleed(t *testing.T) {
	v := testVideo(t)
	c := v.ClonePooled()
	if len(c.Frames) < 2 {
		t.Skip("need at least two frames")
	}
	f0 := c.Frames[0]
	next := append([]byte(nil), c.Frames[1].Payload...)
	f0.Payload = append(f0.Payload, 0xAB)
	if !bytes.Equal(c.Frames[1].Payload, next) {
		t.Fatal("append to frame 0 payload bled into frame 1's arena range")
	}
	f0.MBs = append(f0.MBs, MBRecord{})
	f0.SliceMBStart = append(f0.SliceMBStart, 7)
	if c.Frames[1].SliceMBStart[0] == 7 {
		t.Fatal("append to frame 0 slice table bled into frame 1")
	}
	c.Release()
}

// TestClonePooledConcurrent hammers the pool from many goroutines under the
// race detector: every clone must match the source regardless of which
// recycled arena it lands in.
func TestClonePooledConcurrent(t *testing.T) {
	v := testVideo(t)
	want := v.Clone()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c := v.ClonePooled()
				for f := range c.Frames {
					if !bytes.Equal(c.Frames[f].Payload, want.Frames[f].Payload) {
						panic("pooled clone corrupted")
					}
				}
				// Dirty it before returning so reuse must rewrite it.
				for _, ef := range c.Frames {
					for i := range ef.Payload {
						ef.Payload[i] = 0xEE
					}
				}
				c.Release()
			}
		}()
	}
	wg.Wait()
}

// TestFramePoolPoisoned: the encoder's reconstructions come from
// frame.Scratch, whose samples are a recycled frame's, so no coding tool may
// read a reconstruction sample before writing it. The golden corpus is
// encoded after the pool was stocked with 0xa5-filled frames of its
// geometry; every design point's bitstream and records must still be the
// manifest's, and its decode the encoder's reconstructions.
func TestFramePoolPoisoned(t *testing.T) {
	cases := goldenCases(t)
	want := readGoldenManifest(t, cases)
	for _, gc := range cases {
		for name, got := range map[string]string{"bitstream": hashBitstream(gc.clean), "encoder_records": hashRecords(gc.clean)} {
			if w := want.Cases[gc.key][name]; got != w {
				t.Errorf("%s %s: %s, manifest %s", gc.key, name, got, w)
			}
		}
	}
	checkCorpusRecs(t, func(Params) bool { return true })
}
