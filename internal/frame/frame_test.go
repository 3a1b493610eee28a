package frame

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(15, 16); err == nil {
		t.Fatal("non-multiple width must fail")
	}
	if _, err := New(16, 0); err == nil {
		t.Fatal("zero height must fail")
	}
	f, err := New(64, 48)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Y) != 64*48 || len(f.Cb) != 64*48/4 || len(f.Cr) != 64*48/4 {
		t.Fatal("plane sizes wrong")
	}
}

func TestMBGeometry(t *testing.T) {
	f := MustNew(64, 48)
	if f.MBCols() != 4 || f.MBRows() != 3 {
		t.Fatalf("geometry %dx%d", f.MBCols(), f.MBRows())
	}
	mb := MB{X: 2, Y: 1}
	if mb.Index(4) != 6 {
		t.Fatal("index")
	}
	if got := MBFromIndex(6, 4); got != mb {
		t.Fatalf("round trip: %v", got)
	}
}

func TestMBIndexRoundTripProperty(t *testing.T) {
	prop := func(ix, iy uint8) bool {
		cols := int(ix)%20 + 1
		mb := MB{X: int(ix) % cols, Y: int(iy) % 30}
		return MBFromIndex(mb.Index(cols), cols) == mb
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLumaClamping(t *testing.T) {
	f := MustNew(16, 16)
	f.Y[0] = 100
	f.Y[15] = 200
	f.Y[15*16] = 50
	if f.LumaAt(-5, -5) != 100 {
		t.Fatal("top-left clamp")
	}
	if f.LumaAt(100, -1) != 200 {
		t.Fatal("top-right clamp")
	}
	if f.LumaAt(-3, 100) != 50 {
		t.Fatal("bottom-left clamp")
	}
}

func TestSetLumaBounds(t *testing.T) {
	f := MustNew(16, 16)
	f.SetLuma(-1, 0, 9) // ignored
	f.SetLuma(0, 16, 9) // ignored
	f.SetLuma(3, 2, 9)
	if f.Y[2*16+3] != 9 {
		t.Fatal("in-bounds write")
	}
	for i, v := range f.Y {
		if v != 0 && i != 2*16+3 {
			t.Fatal("out-of-bounds writes must be ignored")
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	f := MustNew(16, 16)
	f.Fill(10, 20, 30)
	g := f.Clone()
	g.Y[0] = 99
	g.Cb[0] = 99
	if f.Y[0] != 10 || f.Cb[0] != 20 || f.Cr[0] != 30 {
		t.Fatal("clone must not alias")
	}
}

func TestClampU8(t *testing.T) {
	if ClampU8(-5) != 0 || ClampU8(300) != 255 || ClampU8(128) != 128 {
		t.Fatal("saturation")
	}
}

func TestChromaAt(t *testing.T) {
	f := MustNew(32, 32)
	f.Cb[0] = 7
	f.Cr[17] = 8 // (1,1) in a 16-wide chroma plane
	if cb, _ := f.ChromaAt(0, 0); cb != 7 {
		t.Fatal("cb")
	}
	if _, cr := f.ChromaAt(1, 1); cr != 8 {
		t.Fatal("cr")
	}
	if cb, _ := f.ChromaAt(-10, -10); cb != 7 {
		t.Fatal("chroma clamp")
	}
}

func TestSequenceGeometry(t *testing.T) {
	s := &Sequence{Name: "t", FPS: 30}
	if s.W() != 0 || s.H() != 0 || s.PixelCount() != 0 {
		t.Fatal("empty sequence")
	}
	s.Frames = []*Frame{MustNew(32, 16), MustNew(32, 16)}
	if s.W() != 32 || s.H() != 16 {
		t.Fatal("dims")
	}
	if s.PixelCount() != 1024 {
		t.Fatalf("pixels = %d", s.PixelCount())
	}
}

// TestCopyRows compares CopyRows with a byte loop at the widths it
// specialises (16, 8) and at ones it does not (4, an odd 3, 7), copying a
// rectangle from (1,1) of one strided plane to (1,1) of another: every byte
// outside the rectangle must keep its sentinel. A source stride of 0 repeats
// one row, as vertical intra prediction uses it.
func TestCopyRows(t *testing.T) {
	for _, w := range []int{16, 8, 4, 3, 7} {
		for _, srcStride := range []int{w + 5, 0} {
			const h, dstStride = 5, 21
			src := make([]uint8, 1+(h+1)*(w+5))
			for i := range src {
				src[i] = uint8(i*7 + 1)
			}
			dst := make([]uint8, (h+2)*dstStride)
			want := make([]uint8, len(dst))
			for i := range dst {
				dst[i], want[i] = 0xA5, 0xA5
			}
			so, do := srcStride+1, dstStride+1
			if srcStride == 0 {
				so = 1
			}
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					want[do+y*dstStride+x] = src[so+y*srcStride+x]
				}
			}
			CopyRows(dst[do:], dstStride, src[so:], srcStride, w, h)
			for i := range dst {
				if dst[i] != want[i] {
					t.Fatalf("width %d source stride %d: dst(%d,%d) = %d, want %d", w, srcStride, i%dstStride, i/dstStride, dst[i], want[i])
				}
			}
		}
	}
}

// BenchmarkCopyRows copies one macroblock's luma rows (16) and one chroma
// block's rows (8) between planes of a 320-sample stride.
func BenchmarkCopyRows(b *testing.B) {
	src, dst := make([]uint8, 320*16), make([]uint8, 320*16)
	for _, w := range []int{16, 8} {
		b.Run(fmt.Sprint(w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				CopyRows(dst[i&7:], 320, src, 320, w, w)
			}
		})
	}
}

// TestFramePoolConcurrent hammers the per-geometry pools from several
// goroutines, first use of each geometry included (run under -race).
func TestFramePoolConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				w, h := 16*(1+(g+i)%5), 16*(1+i%3)
				f := Scratch(w, h)
				if f.W != w || f.H != h || len(f.Y) != w*h || len(f.Cb) != w*h/4 {
					t.Errorf("pool handed a %dx%d frame (planes %d/%d) for %dx%d", f.W, f.H, len(f.Y), len(f.Cb), w, h)
					return
				}
				f.Fill(200, 100, 50)
				Recycle(f)
			}
		}(g)
	}
	wg.Wait()
}
