package core

import (
	"testing"

	"videoapp/internal/bch"
	"videoapp/internal/bitio"
)

func TestPartitionsRoundTrip(t *testing.T) {
	v := encodeTestVideo(t, "parkrun_like", 96, 64, 8, smallParams())
	an := analyze(t, v, DefaultOptions())
	parts := an.Partition(PaperAssignment())
	data, err := MarshalPartitions(parts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalPartitions(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(parts) {
		t.Fatalf("%d frames, want %d", len(got), len(parts))
	}
	for f := range parts {
		if len(got[f].Pivots) != len(parts[f].Pivots) {
			t.Fatalf("frame %d: pivot count", f)
		}
		for i := range parts[f].Pivots {
			a, b := parts[f].Pivots[i], got[f].Pivots[i]
			if a.Bit != b.Bit || a.Scheme.Name != b.Scheme.Name {
				t.Fatalf("frame %d pivot %d: %+v vs %+v", f, i, a, b)
			}
		}
	}
	// Round-tripped tables must drive Merge identically.
	ss, err := SplitStreams(v, parts)
	if err != nil {
		t.Fatal(err)
	}
	ss.Parts = got
	merged, err := ss.Merge(v)
	if err != nil {
		t.Fatal(err)
	}
	for f := range v.Frames {
		a, b := v.Frames[f].Payload, merged.Frames[f].Payload
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("frame %d differs with round-tripped pivots", f)
			}
		}
	}
}

func TestPartitionsCompact(t *testing.T) {
	// §4.4: a few bytes per frame.
	v := encodeTestVideo(t, "crew_like", 96, 64, 10, smallParams())
	an := analyze(t, v, DefaultOptions())
	data, err := MarshalPartitions(an.Partition(PaperAssignment()))
	if err != nil {
		t.Fatal(err)
	}
	if perFrame := len(data) / 10; perFrame > 8 {
		t.Fatalf("%d bytes per frame", perFrame)
	}
}

func TestPartitionsIdealScheme(t *testing.T) {
	v := encodeTestVideo(t, "news_like", 64, 48, 4, smallParams())
	an := analyze(t, v, DefaultOptions())
	parts := an.Partition(IdealAssignment())
	data, err := MarshalPartitions(parts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalPartitions(data)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Pivots[0].Scheme.Name != "Ideal" {
		t.Fatalf("ideal scheme lost: %+v", got[0].Pivots[0])
	}
}

func TestUnmarshalPartitionsRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalPartitions(nil); err == nil {
		t.Fatal("empty must fail")
	}
	parts := []FramePartition{
		{Pivots: []Pivot{{Bit: 1000, Scheme: PaperAssignment().Header}}},
		{Pivots: []Pivot{{Bit: 2000, Scheme: PaperAssignment().Header}}},
	}
	data, err := MarshalPartitions(parts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalPartitions(data[:1]); err == nil {
		t.Fatal("truncation must fail")
	}
}

// TestUnmarshalPartitionsTruncatedEverywhere cuts a real pivot stream at
// every byte boundary: the parser must be total (error or parse, never a
// panic) and a parsed prefix can never carry more frames than the original.
func TestUnmarshalPartitionsTruncatedEverywhere(t *testing.T) {
	v := encodeTestVideo(t, "crew_like", 96, 64, 6, smallParams())
	an := analyze(t, v, DefaultOptions())
	parts := an.Partition(PaperAssignment())
	data, err := MarshalPartitions(parts)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(data); n++ {
		got, err := UnmarshalPartitions(data[:n])
		if err != nil {
			continue
		}
		if len(got) > len(parts) {
			t.Fatalf("prefix of %d bytes parsed %d frames, original has %d", n, len(got), len(parts))
		}
	}
	if _, err := UnmarshalPartitions(data); err != nil {
		t.Fatalf("full stream must parse: %v", err)
	}
}

// TestUnmarshalPartitionsCorruptHeader exercises the header limits: an
// absurd frame count, an oversized pivot count, and a stream that ends
// between a pivot's delta and its scheme id.
func TestUnmarshalPartitionsCorruptHeader(t *testing.T) {
	craft := func(build func(w *bitio.Writer)) []byte {
		w := bitio.NewWriter()
		build(w)
		w.AlignByte()
		return w.Bytes()
	}
	cases := map[string][]byte{
		"oversized frame count": craft(func(w *bitio.Writer) {
			w.WriteUE(1 << 21)
		}),
		"oversized pivot count": craft(func(w *bitio.Writer) {
			w.WriteUE(1)  // one frame
			w.WriteUE(65) // 65 pivots > 64 limit
		}),
		"missing scheme id": craft(func(w *bitio.Writer) {
			w.WriteUE(1)   // one frame
			w.WriteUE(9)   // nine pivots...
			w.WriteUE(100) // ...but only one delta and nothing after
		}),
	}
	for name, data := range cases {
		if _, err := UnmarshalPartitions(data); err == nil {
			t.Errorf("%s: must be rejected", name)
		}
	}
}

func TestMarshalPartitionsRejectsUnknownScheme(t *testing.T) {
	parts := []FramePartition{{Pivots: []Pivot{
		{Bit: 0, Scheme: bch.Scheme{Name: "BCH-99", T: 99}},
	}}}
	if _, err := MarshalPartitions(parts); err == nil {
		t.Fatal("unknown scheme must be rejected")
	}
}

func TestMarshalPartitionsRejectsUnsorted(t *testing.T) {
	parts := []FramePartition{{Pivots: []Pivot{
		{Bit: 100, Scheme: PaperAssignment().Header},
		{Bit: 50, Scheme: PaperAssignment().Header},
	}}}
	if _, err := MarshalPartitions(parts); err == nil {
		t.Fatal("unsorted pivots must be rejected")
	}
}
