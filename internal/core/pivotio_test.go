package core

import (
	"fmt"
	"reflect"
	"testing"

	"videoapp/internal/bch"
	"videoapp/internal/bitio"
)

// TestPartitionsRoundTrip: a marshalled pivot table parses back to the same
// pivots, which drive Merge as the originals do.
func TestPartitionsRoundTrip(t *testing.T) {
	holds(t, allClips, func(e *entry) error {
		data, err := MarshalPartitions(e.parts)
		if err != nil {
			return err
		}
		got, err := UnmarshalPartitions(data)
		if err != nil {
			return err
		}
		if len(got) != len(e.parts) {
			return fmt.Errorf("%d frames, want %d", len(got), len(e.parts))
		}
		for f := range e.parts {
			if len(got[f].Pivots) != len(e.parts[f].Pivots) {
				return fmt.Errorf("frame %d: %d pivots, want %d", f, len(got[f].Pivots), len(e.parts[f].Pivots))
			}
			for i, a := range e.parts[f].Pivots {
				if b := got[f].Pivots[i]; a.Bit != b.Bit || a.Scheme.Name != b.Scheme.Name {
					return fmt.Errorf("frame %d pivot %d: %+v vs %+v", f, i, a, b)
				}
			}
		}
		return splitMerge(e.v, e.parts, got)
	})
}

// TestPartitionsCompact: §4.4, a few bytes per frame and slice.
func TestPartitionsCompact(t *testing.T) {
	holds(t, allClips, func(e *entry) error {
		data, err := MarshalPartitions(e.parts)
		if perFrame := len(data) / e.frames; err == nil && perFrame > 8*e.slices {
			err = fmt.Errorf("%d bytes per frame", perFrame)
		}
		return err
	})
}

func TestPartitionsIdealScheme(t *testing.T) {
	data, err := MarshalPartitions(corpusOf(t, newsClip).an.Partition(IdealAssignment()))
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
	data, err := MarshalPartitions([]FramePartition{
		{Pivots: []Pivot{{Bit: 1000, Scheme: PaperAssignment().Header}}},
		{Pivots: []Pivot{{Bit: 2000, Scheme: PaperAssignment().Header}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"empty": nil, "truncated": data[:1]} {
		if _, err := UnmarshalPartitions(data); err == nil {
			t.Errorf("%s: must be rejected", name)
		}
	}
}

// TestUnmarshalPartitionsTruncatedEverywhere cuts a real pivot stream at
// every byte boundary: the parser must be total (error or parse, never a
// panic) and a parsed prefix can never carry more frames than the original.
func TestUnmarshalPartitionsTruncatedEverywhere(t *testing.T) {
	holds(t, allClips, func(e *entry) error {
		data, err := MarshalPartitions(e.parts)
		if err != nil {
			return err
		}
		for n := 0; n < len(data); n++ {
			if got, err := UnmarshalPartitions(data[:n]); err == nil && len(got) > len(e.parts) {
				return fmt.Errorf("prefix of %d bytes parsed %d frames, original has %d", n, len(got), len(e.parts))
			}
		}
		_, err = UnmarshalPartitions(data)
		return err
	})
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
	if _, err := MarshalPartitions([]FramePartition{{Pivots: []Pivot{{Scheme: bch.Scheme{Name: "BCH-99", T: 99}}}}}); err == nil {
		t.Fatal("unknown scheme must be rejected")
	}
}

func TestMarshalPartitionsRejectsUnsorted(t *testing.T) {
	h := PaperAssignment().Header
	if _, err := MarshalPartitions([]FramePartition{{Pivots: []Pivot{{Bit: 100, Scheme: h}, {Bit: 50, Scheme: h}}}}); err == nil {
		t.Fatal("unsorted pivots must be rejected")
	}
}

// Fuzz target: the pivot-table parser must be total — any byte sequence
// either parses or returns an error, never panics — and whatever parses
// must survive a canonical re-marshal round trip. Without -fuzz this runs
// the seed corpus as a regular test.

func FuzzPartitionsRoundTrip(f *testing.F) {
	seed, err := MarshalPartitions(corpusOf(f, gopsClip).parts)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		parts, err := UnmarshalPartitions(data)
		if err != nil {
			return // rejected is fine; panics are not
		}
		// Parsed tables are canonical: deltas are non-negative and schemes
		// come from the registry, so they must re-marshal and round-trip to
		// an identical table.
		out, err := MarshalPartitions(parts)
		if err != nil {
			t.Fatalf("parsed table failed to re-marshal: %v", err)
		}
		again, err := UnmarshalPartitions(out)
		if err != nil {
			t.Fatalf("re-marshalled table failed to parse: %v", err)
		}
		if !reflect.DeepEqual(parts, again) {
			t.Fatal("pivot table not stable under re-marshal")
		}
	})
}
