package codec

import (
	"testing"
)

func TestContainerRoundTrip(t *testing.T) {
	seq := testSeq(t, "crew_like", 96, 64, 8)
	p := testParams()
	p.SlicesPerFrame = 2
	v, err := encode(seq, p)
	if err != nil {
		t.Fatal(err)
	}
	data := Marshal(v)
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.W != v.W || got.H != v.H || got.FPS != v.FPS {
		t.Fatal("geometry")
	}
	if got.Params != v.Params {
		t.Fatalf("params %+v vs %+v", got.Params, v.Params)
	}
	if len(got.Frames) != len(v.Frames) {
		t.Fatal("frame count")
	}
	for i := range v.Frames {
		a, b := v.Frames[i], got.Frames[i]
		if a.Type != b.Type || a.DisplayIdx != b.DisplayIdx || a.BaseQP != b.BaseQP ||
			a.RefFwd != b.RefFwd || a.RefBwd != b.RefBwd {
			t.Fatalf("frame %d header mismatch", i)
		}
		if len(a.Payload) != len(b.Payload) {
			t.Fatalf("frame %d payload length", i)
		}
		for j := range a.Payload {
			if a.Payload[j] != b.Payload[j] {
				t.Fatalf("frame %d payload byte %d", i, j)
			}
		}
	}
}

// TestContainerDecodesIdentically: every golden design point decodes from
// the container to the encoder's reconstructions.
func TestContainerDecodesIdentically(t *testing.T) {
	checkContainerRoundTrip(t, func(Params) bool { return true })
}

// checkContainerRoundTrip requires every golden design point whose
// parameters uses accepts to keep them through Marshal and Unmarshal, and to
// decode from the container to the encoder's reconstructions.
func checkContainerRoundTrip(t *testing.T, uses func(Params) bool) {
	for _, gc := range goldenCases(t) {
		if !uses(gc.clean.Params) {
			continue
		}
		got, err := Unmarshal(Marshal(gc.clean))
		if err != nil {
			t.Fatalf("%s: %v", gc.key, err)
		}
		if got.Params != gc.clean.Params {
			t.Fatalf("%s: parameters %+v through the container, %+v before", gc.key, got.Params, gc.clean.Params)
		}
		dec, err := decodeCoded(got, nil, 1)
		if err != nil {
			t.Fatalf("%s: %v", gc.key, err)
		}
		comparePlanes(t, gc.key+" through the container", dec, gc.recs)
	}
}

func TestContainerRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{'V', 'A', 'P'},
		{'X', 'A', 'P', 'P', 1},
		{'V', 'A', 'P', 'P', 99}, // bad version
		append([]byte{'V', 'A', 'P', 'P', 1}, make([]byte, 3)...), // truncated header
	}
	for i, c := range cases {
		if _, err := Unmarshal(c); err == nil {
			t.Fatalf("case %d must be rejected", i)
		}
	}
}

func TestContainerRejectsTruncation(t *testing.T) {
	seq := testSeq(t, "news_like", 64, 48, 4)
	v, err := encode(seq, testParams())
	if err != nil {
		t.Fatal(err)
	}
	data := Marshal(v)
	for _, cut := range []int{len(data) - 1, len(data) / 2, 10} {
		if _, err := Unmarshal(data[:cut]); err == nil {
			t.Fatalf("truncation at %d must be rejected", cut)
		}
	}
}

func TestContainerRejectsTrailingBytes(t *testing.T) {
	seq := testSeq(t, "news_like", 64, 48, 3)
	v, err := encode(seq, testParams())
	if err != nil {
		t.Fatal(err)
	}
	data := append(Marshal(v), 0xEE)
	if _, err := Unmarshal(data); err == nil {
		t.Fatal("trailing bytes must be rejected")
	}
}

func TestContainerCompactness(t *testing.T) {
	// The container's framing overhead must be small relative to payload.
	seq := testSeq(t, "crew_like", 96, 64, 10)
	v, err := encode(seq, testParams())
	if err != nil {
		t.Fatal(err)
	}
	var payload int
	for _, f := range v.Frames {
		payload += len(f.Payload)
	}
	framing := len(Marshal(v)) - payload
	if framing > payload/5+200 {
		t.Fatalf("framing %d bytes for %d payload bytes", framing, payload)
	}
}

func BenchmarkMarshal(b *testing.B) {
	b.ReportAllocs()
	seq := testSeq(b, "crew_like", 176, 144, 10)
	v, err := encode(seq, testParams())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Marshal(v)
	}
}

func BenchmarkUnmarshal(b *testing.B) {
	b.ReportAllocs()
	seq := testSeq(b, "crew_like", 176, 144, 10)
	v, err := encode(seq, testParams())
	if err != nil {
		b.Fatal(err)
	}
	data := Marshal(v)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}
