package core

import (
	"context"
	"reflect"
	"testing"

	"videoapp/internal/codec"
	"videoapp/internal/synth"
)

// Fuzz target: the pivot-table parser must be total — any byte sequence
// either parses or returns an error, never panics — and whatever parses
// must survive a canonical re-marshal round trip. Without -fuzz this runs
// the seed corpus as a regular test.

func FuzzPartitionsRoundTrip(f *testing.F) {
	cfg, _ := synth.PresetByName("crew_like")
	seq := synth.Generate(cfg.ScaleTo(64, 48, 4))
	p := codec.DefaultParams()
	p.GOPSize = 4
	p.SearchRange = 8
	v, err := codec.EncodeParallelContext(context.Background(), seq, p, 1)
	if err != nil {
		f.Fatal(err)
	}
	an := analyze(f, v, DefaultOptions())
	seed, err := MarshalPartitions(an.Partition(PaperAssignment()))
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
