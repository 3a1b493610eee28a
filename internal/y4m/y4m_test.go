package y4m

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"videoapp/internal/frame"
	"videoapp/internal/synth"
)

func testSequence() *frame.Sequence {
	cfg, _ := synth.PresetByName("crew_like")
	return synth.Generate(cfg.ScaleTo(64, 48, 5))
}

func TestWriteReadRoundTrip(t *testing.T) {
	seq := testSequence()
	var buf bytes.Buffer
	if err := Write(&buf, seq); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(&buf, "rt")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Frames) != 5 || got.W() != 64 || got.H() != 48 {
		t.Fatalf("geometry %dx%d x%d", got.W(), got.H(), len(got.Frames))
	}
	if got.FPS != seq.FPS {
		t.Fatalf("fps %d vs %d", got.FPS, seq.FPS)
	}
	for i := range seq.Frames {
		for j := range seq.Frames[i].Y {
			if seq.Frames[i].Y[j] != got.Frames[i].Y[j] {
				t.Fatalf("frame %d luma %d differs", i, j)
			}
		}
		for j := range seq.Frames[i].Cb {
			if seq.Frames[i].Cb[j] != got.Frames[i].Cb[j] || seq.Frames[i].Cr[j] != got.Frames[i].Cr[j] {
				t.Fatalf("frame %d chroma %d differs", i, j)
			}
		}
	}
}

func TestHeaderParsing(t *testing.T) {
	r, err := NewReader(strings.NewReader("YUV4MPEG2 W64 H48 F30000:1001 Ip A1:1 C420jpeg\nFRAME\n" + string(make([]byte, 64*48*3/2))))
	if err != nil {
		t.Fatal(err)
	}
	if r.W != 64 || r.H != 48 {
		t.Fatal("dims")
	}
	if r.FPS() != 30 { // 29.97 rounds to 30
		t.Fatalf("fps %d", r.FPS())
	}
	f, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if f.W != 64 {
		t.Fatal("frame dims")
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestRejectsBadStreams(t *testing.T) {
	cases := []string{
		"",
		"NOTYUV W64 H48\n",
		"YUV4MPEG2 W64 H48 C444\n",     // unsupported chroma
		"YUV4MPEG2 W63 H48 C420\n",     // not MB aligned
		"YUV4MPEG2 F30:1 C420\n",       // missing dims
		"YUV4MPEG2 W64 H48\nBADMARK\n", // bad frame marker triggers at Next
	}
	for i, c := range cases[:5] {
		if _, err := ReadAll(strings.NewReader(c), "t"); err == nil {
			t.Fatalf("case %d must fail", i)
		}
	}
	r, err := NewReader(strings.NewReader(cases[5]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil {
		t.Fatal("bad frame marker must fail")
	}
}

func TestTruncatedFrame(t *testing.T) {
	head := "YUV4MPEG2 W64 H48 C420\nFRAME\n"
	data := head + string(make([]byte, 100)) // far too short
	if _, err := ReadAll(strings.NewReader(data), "t"); err == nil {
		t.Fatal("truncated frame must fail")
	}
}

func TestWriteEmptyFails(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, &frame.Sequence{}); err == nil {
		t.Fatal("empty sequence must fail")
	}
}

func TestWriteInconsistentSizesFails(t *testing.T) {
	var buf bytes.Buffer
	seq := &frame.Sequence{FPS: 30, Frames: []*frame.Frame{frame.MustNew(32, 32), frame.MustNew(64, 48)}}
	if err := Write(&buf, seq); err == nil {
		t.Fatal("inconsistent sizes must fail")
	}
}

// TestViewsEqualWrite: a layout's Size is the length of the stream Write
// produces — at the default and an explicit frame rate — and filling the
// frames Views lays out in a buffer of that length, pre-filled with garbage,
// leaves exactly Write's bytes; each plane is capped at its length. Views
// refuses a buffer of any other length, and both refuse a shape no frame can
// have.
func TestViewsEqualWrite(t *testing.T) {
	for _, fps := range []int{0, 30} {
		seq := testSequence()
		seq.FPS = fps
		var want bytes.Buffer
		if err := Write(&want, seq); err != nil {
			t.Fatal(err)
		}
		l := Layout{W: seq.W(), H: seq.H(), FPS: fps, Frames: len(seq.Frames)}
		n, err := l.Size()
		if err != nil || n != want.Len() {
			t.Fatalf("fps %d: Size = %d, %v; Write wrote %d bytes", fps, n, err, want.Len())
		}
		dst := bytes.Repeat([]byte{0xff}, n)
		views, err := l.Views(dst)
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range views {
			for _, p := range [][2][]uint8{{f.Y, seq.Frames[i].Y}, {f.Cb, seq.Frames[i].Cb}, {f.Cr, seq.Frames[i].Cr}} {
				if cap(p[0]) != len(p[1]) || copy(p[0], p[1]) != len(p[1]) {
					t.Fatalf("fps %d frame %d: a %d-sample plane viewed at len %d cap %d", fps, i, len(p[1]), len(p[0]), cap(p[0]))
				}
			}
		}
		if !bytes.Equal(dst, want.Bytes()) {
			t.Fatalf("fps %d: the filled views differ from Write", fps)
		}
		for _, m := range []int{n - 1, n + 1} {
			if _, err := l.Views(make([]byte, m)); err == nil {
				t.Fatalf("fps %d: Views in %d bytes of a %d-byte stream succeeded", fps, m, n)
			}
		}
	}
	for _, bad := range []Layout{{W: 64, H: 48}, {W: 60, H: 48, Frames: 1}, {W: 64, H: -16, Frames: 1}} {
		if _, err := bad.Size(); err == nil {
			t.Fatalf("Size of %+v succeeded", bad)
		}
		if _, err := bad.Views(make([]byte, 64)); err == nil {
			t.Fatalf("Views of %+v succeeded", bad)
		}
	}
}
