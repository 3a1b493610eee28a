package videoapp

// Reproducibility is load-bearing for the experiments: identical inputs and
// seeds must give bit-identical artifacts at every stage, at every worker
// count, watched or not.

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"
)

// run is one configuration of the pipeline: a worker count, and whether a
// Metrics observer rides the context of every call.
type run struct {
	workers  int
	observed bool
}

// outcome is everything one run of the pipeline over the main clip
// produces.
type outcome struct {
	res       *Result
	container []byte // Marshal of the encoded video
	archive   []byte // StreamToArchive, one GOP per chunk
	dec       *Sequence
	flips     int // of the seeded round trip that decoded dec
	// processed is the metrics of ProcessContext and the round trip alone;
	// snap adds StreamToArchive's.
	processed, snap MetricsSnapshot
}

// roundTripSeed seeds every round trip the invariance body compares.
const roundTripSeed = 7

// produce processes e's clip, archives it and stores it once at workers,
// publishing to m when it is not nil.
func produce(t testing.TB, e *entry, workers int, m *Metrics) outcome {
	t.Helper()
	ctx := context.Background()
	if m != nil {
		ctx = ContextWithObserver(ctx, m)
	}
	p := e.pipeline(workers, WithChunkGOPs(1))
	res, err := p.ProcessContext(ctx, e.seq)
	if err != nil {
		t.Fatal(err)
	}
	dec, flips, err := res.StoreRoundTripContext(ctx, roundTripSeed)
	if err != nil {
		t.Fatal(err)
	}
	o := outcome{res: res, container: Marshal(res.Video), dec: dec, flips: flips}
	if m != nil {
		o.processed = m.Snapshot()
	}
	var archive bytes.Buffer
	if _, _, err := p.StreamToArchive(ctx, SequenceSource(e.seq), &archive); err != nil {
		t.Fatal(err)
	}
	if o.archive = archive.Bytes(); m != nil {
		o.snap = m.Snapshot()
	}
	return o
}

// departure names the first of the Result's artefacts in which o departs
// from ref — its container bytes, partitions, footprint, importance or
// seeded round trip — or is "" if none does.
func (o outcome) departure(ref outcome) string {
	switch {
	case !bytes.Equal(o.container, ref.container):
		return "container bytes"
	case !reflect.DeepEqual(o.res.Partitions, ref.res.Partitions) || !reflect.DeepEqual(o.res.Stats, ref.res.Stats):
		return fmt.Sprintf("partitions or stats (%+v, want %+v)", o.res.Stats, ref.res.Stats)
	case !reflect.DeepEqual(o.res.Analysis.Importance, ref.res.Analysis.Importance):
		return "importance maps"
	case o.flips != ref.flips || !sameSequence(o.dec, ref.dec):
		return fmt.Sprintf("seeded round trip (%d flips, want %d) and its pixels", o.flips, ref.flips)
	}
	return ""
}

// invariance runs the pipeline as each of runs configures it and requires
// every run to produce what the reference does: the Result — analysis,
// partitions and footprint — its container bytes, the archive bytes, the
// seeded round trip and, for an observed run, the metrics but for wall
// time.
func invariance(t *testing.T, runs ...run) {
	e, ref := mainOf(t), referenceOf(t)
	for _, r := range runs {
		var m *Metrics
		if r.observed {
			m = NewMetrics()
		}
		got := produce(t, e, r.workers, m)
		if d := got.departure(ref); d != "" {
			t.Fatalf("%+v: %s differ from the reference", r, d)
		}
		if !bytes.Equal(got.archive, ref.archive) {
			t.Fatalf("%+v: archive bytes (pivot tables included) differ from the reference", r)
		}
		if r.observed {
			if n := got.snap.Counter("stream_chunks", ""); n != 5 {
				t.Fatalf("%+v: stream_chunks = %d, want one per chunk (5)", r, n)
			}
			requireSameMetrics(t, ref.processed, got.processed)
			requireSameMetrics(t, ref.snap, got.snap)
		}
	}
}

// TestPipelineFullyDeterministic: a second identical build agrees with the
// reference, metrics included.
func TestPipelineFullyDeterministic(t *testing.T) { invariance(t, run{1, true}) }

// TestRoundTripWorkerInvariance is the headline determinism guarantee: the
// full pipeline plus a seeded storage round trip produces bit-identical
// results at every worker count.
func TestRoundTripWorkerInvariance(t *testing.T) { invariance(t, run{2, false}, run{8, false}) }

// TestObserverDoesNotPerturbOutput pins the passivity contract: an
// unobserved run is bit-identical to the observed reference.
func TestObserverDoesNotPerturbOutput(t *testing.T) { invariance(t, run{1, false}) }

// TestMetricsIdenticalAcrossWorkers pins the determinism contract for the
// aggregator: counters, gauges and per-stage call and frame totals are pure
// functions of the input and seed, independent of the worker count — on the
// batch path and on the streaming path, where the worker count also decides
// how many chunks are in flight. Only wall-clock figures may differ.
func TestMetricsIdenticalAcrossWorkers(t *testing.T) { invariance(t, run{2, true}, run{8, true}) }

// TestFacadeParallelEncode: the facade's encode at eight workers codes the
// reference's bits.
func TestFacadeParallelEncode(t *testing.T) {
	e := mainOf(t)
	v, err := EncodeContext(context.Background(), e.seq, e.p, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(Marshal(v), referenceOf(t).container) {
		t.Fatal("parallel encode differs from serial")
	}
}

// TestEncodeDeterministicAcrossOptions pins the facade's wiring of each
// encoder option: EncodeContext codes under the Params it is given, and the
// container carries them. That the codec's bits under each option are
// deterministic is internal/codec's TestGoldenDecode, which pins their
// hashes.
func TestEncodeDeterministicAcrossOptions(t *testing.T) {
	seq := seqOf(t, "crew_like", 64, 48, 6)
	for _, mut := range []func(*Params){
		func(p *Params) {},
		func(p *Params) { p.HalfPel = true },
		func(p *Params) { p.Deblock = true },
		func(p *Params) { p.SlicesPerFrame = 2 },
		func(p *Params) { p.Entropy = CAVLC },
	} {
		p := mainClip().p
		mut(&p)
		v, err := EncodeContext(context.Background(), seq, p, 1)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Unmarshal(Marshal(v))
		if err != nil {
			t.Fatal(err)
		}
		if v.Params != p || back.Params != p {
			t.Fatalf("encoded under %+v, container carries %+v", v.Params, back.Params)
		}
	}
}
