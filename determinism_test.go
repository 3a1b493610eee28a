package videoapp

// Reproducibility is load-bearing for the experiments: identical inputs and
// seeds must give bit-identical artifacts at every stage.

import (
	"bytes"
	"context"
	"testing"
)

func TestPipelineFullyDeterministic(t *testing.T) {
	build := func() ([]byte, []byte, int) {
		seq, err := GenerateTestVideo("sports_like", 96, 64, 10)
		if err != nil {
			t.Fatal(err)
		}
		params := DefaultParams()
		params.GOPSize = 10
		params.SearchRange = 8
		p := NewPipeline(WithParams(params))
		res, err := p.ProcessContext(context.Background(), seq)
		if err != nil {
			t.Fatal(err)
		}
		container := Marshal(res.Video)
		// The archive bytes hold the streamed form of both: per-chunk
		// headers and pivot tables in the precise regions, payloads in the
		// approximate streams.
		var archive bytes.Buffer
		if _, _, err := p.StreamToArchive(context.Background(), SequenceSource(seq), &archive); err != nil {
			t.Fatal(err)
		}
		_, flips, err := res.StoreRoundTripContext(context.Background(), 12345)
		if err != nil {
			t.Fatal(err)
		}
		return container, archive.Bytes(), flips
	}
	c1, a1, f1 := build()
	c2, a2, f2 := build()
	if !bytes.Equal(c1, c2) {
		t.Fatal("containers differ across identical builds")
	}
	if !bytes.Equal(a1, a2) {
		t.Fatal("archives (pivot tables included) differ across identical builds")
	}
	if f1 != f2 {
		t.Fatalf("seeded store round trips differ: %d vs %d flips", f1, f2)
	}
}

func TestEncodeDeterministicAcrossOptions(t *testing.T) {
	seq, _ := GenerateTestVideo("crew_like", 64, 48, 6)
	for _, mut := range []func(*Params){
		func(p *Params) {},
		func(p *Params) { p.HalfPel = true },
		func(p *Params) { p.Deblock = true },
		func(p *Params) { p.SlicesPerFrame = 2 },
		func(p *Params) { p.Entropy = CAVLC },
	} {
		p := DefaultParams()
		p.GOPSize = 6
		p.SearchRange = 8
		mut(&p)
		a, err := encodeSerial(seq, p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := encodeSerial(seq, p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(Marshal(a), Marshal(b)) {
			t.Fatalf("encode nondeterministic with params %+v", p)
		}
	}
}
