package codec

import (
	"context"
	"testing"

	"videoapp/internal/bitio"
	"videoapp/internal/quality"
)

func sliceParams(n int) Params {
	p := testParams()
	p.SlicesPerFrame = n
	return p
}

func TestSlicedEncodeDecodeQuality(t *testing.T) {
	seq := testSeq(t, "crew_like", 96, 64, 8)
	for _, n := range []int{1, 2, 4} {
		_, dec := encodeDecode(t, seq, sliceParams(n))
		psnr, _ := quality.PSNRContext(context.Background(), seq, dec, 1)
		if psnr < 28 {
			t.Fatalf("%d slices: PSNR %.2f dB", n, psnr)
		}
	}
}

func TestSliceTablesRecorded(t *testing.T) {
	seq := testSeq(t, "crew_like", 96, 64, 4)
	v, _ := encodeDecode(t, seq, sliceParams(4))
	for fi, f := range v.Frames {
		if len(f.SliceMBStart) != 4 {
			t.Fatalf("frame %d: %d slices", fi, len(f.SliceMBStart))
		}
		if f.SliceMBStart[0] != 0 || f.SliceByteStart[0] != 0 {
			t.Fatal("first slice must start at 0")
		}
		for s := 1; s < 4; s++ {
			if f.SliceMBStart[s] <= f.SliceMBStart[s-1] {
				t.Fatal("slice MB starts must increase")
			}
			if f.SliceByteStart[s] <= f.SliceByteStart[s-1] {
				t.Fatal("slice byte starts must increase")
			}
			if f.SliceMBStart[s]%v.MBCols() != 0 {
				t.Fatal("slices must start at row boundaries")
			}
		}
	}
}

func TestSliceHeaderRoundTrip(t *testing.T) {
	f := &EncodedFrame{
		Type: FrameP, CodedIdx: 3, DisplayIdx: 3, BaseQP: 24,
		RefFwd: 2, RefBwd: -1, Payload: make([]byte, 100),
		SliceMBStart:   []int{0, 12, 24},
		SliceByteStart: []int{0, 40, 70},
	}
	var g EncodedFrame
	if _, err := unmarshalHeader(marshalHeader(f), &g); err != nil {
		t.Fatal(err)
	}
	if len(g.SliceMBStart) != 3 || g.SliceMBStart[1] != 12 || g.SliceByteStart[2] != 70 {
		t.Fatalf("slice tables: %+v", &g)
	}
}

func TestSlicesCostExtraStorage(t *testing.T) {
	// §8: each slice resets the entropy context and forfeits cross-slice
	// prediction, so more slices must cost more bits.
	seq := testSeq(t, "stockholm_like", 96, 64, 10)
	v1, err := encode(seq, sliceParams(1))
	if err != nil {
		t.Fatal(err)
	}
	v4, err := encode(seq, sliceParams(4))
	if err != nil {
		t.Fatal(err)
	}
	if v4.TotalPayloadBits() <= v1.TotalPayloadBits() {
		t.Fatalf("4 slices %d bits <= 1 slice %d bits", v4.TotalPayloadBits(), v1.TotalPayloadBits())
	}
}

func TestSliceContainsCodingErrors(t *testing.T) {
	// The point of slices: a flip in the LAST slice must not damage the
	// rows of earlier slices in the same frame.
	seq := testSeq(t, "parkrun_like", 96, 64, 6)
	v, err := encode(seq, sliceParams(2))
	if err != nil {
		t.Fatal(err)
	}
	clean, err := decodeCoded(v, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	target := 2 // a P frame
	f := v.Frames[target]
	// Flip inside the second slice's payload span.
	lastSliceBitStart := int64(f.SliceByteStart[1]) * 8
	c := v.Clone()
	bitio.FlipBit(c.Frames[target].Payload, lastSliceBitStart+8)
	dec := DecodeSingle(c, target, clean)

	// Rows of slice 0 (above SliceMBStart[1]) must be untouched.
	topRows := f.SliceMBStart[1] / v.MBCols() * 16
	for y := 0; y < topRows; y++ {
		for x := 0; x < v.W; x++ {
			if dec.Y[y*v.W+x] != clean[target].Y[y*v.W+x] {
				t.Fatalf("slice 0 pixel (%d,%d) damaged by a slice-1 flip", x, y)
			}
		}
	}
	// And the flip must damage something in slice 1.
	damaged := false
	for y := topRows; y < v.H && !damaged; y++ {
		for x := 0; x < v.W; x++ {
			if dec.Y[y*v.W+x] != clean[target].Y[y*v.W+x] {
				damaged = true
				break
			}
		}
	}
	if !damaged {
		t.Fatal("flip produced no damage at all")
	}
}

func TestSlicedCorruptDecodeNeverPanics(t *testing.T) {
	seq := testSeq(t, "sports_like", 64, 48, 5)
	v, err := encode(seq, sliceParams(3))
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		c := v.Clone()
		for _, f := range c.Frames {
			bitio.FlipBit(f.Payload, int64(trial*37)%f.PayloadBits())
		}
		if _, err := DecodeContext(context.Background(), c, DecodeOptions{}, 1); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSliceCountClampedToRows(t *testing.T) {
	// 48 px = 3 MB rows; asking for 16 slices must degrade gracefully.
	seq := testSeq(t, "news_like", 64, 48, 3)
	v, err := encode(seq, sliceParams(16))
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Frames[0].SliceMBStart) != 3 {
		t.Fatalf("%d slices for 3 MB rows", len(v.Frames[0].SliceMBStart))
	}
	if _, err := DecodeContext(context.Background(), v, DecodeOptions{}, 1); err != nil {
		t.Fatal(err)
	}
}
