package store

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"videoapp/internal/codec"
	"videoapp/internal/core"
	"videoapp/internal/mlc"
	"videoapp/internal/quality"
)

func TestNewValidatesSubstrate(t *testing.T) {
	_, err := New(Config{Substrate: mlc.Substrate{LevelsPerCell: 3, RawBER: 1e-3, ScrubIntervalMonths: 3}})
	if err == nil {
		t.Fatal("bad substrate must be rejected")
	}
}

// footprintUnder is the footprint of the corpus video partitioned under a.
func footprintUnder(t *testing.T, e *entry, a core.ClassAssignment) Stats {
	t.Helper()
	st, err := systemOf(t, a).FootprintContext(context.Background(), e.v, e.an.Partition(a), e.pixels, 1)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// footprintAccounting: the stats account for every payload bit, per scheme
// and in total, and are identical at every worker count.
func footprintAccounting(t *testing.T, r route) {
	e := videoOf(t)
	s := variableSystem(t)
	st, err := s.FootprintContext(context.Background(), e.v, e.parts, e.pixels, max(r.workers, 1))
	if err != nil {
		t.Fatal(err)
	}
	if st.PayloadBits != e.v.TotalPayloadBits() {
		t.Fatalf("payload %d, want %d", st.PayloadBits, e.v.TotalPayloadBits())
	}
	if st.HeaderBits <= 0 || st.Cells <= 0 || st.CellsPerPixel <= 0 {
		t.Fatalf("degenerate stats: %+v", st)
	}
	var schemeSum int64
	for _, n := range st.PerScheme {
		schemeSum += n
	}
	if schemeSum != st.PayloadBits {
		t.Fatal("per-scheme sizes must sum to the payload")
	}
	if serial := footprintUnder(t, e, core.PaperAssignment()); !reflect.DeepEqual(st, serial) {
		t.Fatalf("stats differ from the serial ones: %+v vs %+v", st, serial)
	}
}

func TestFootprintAccounting(t *testing.T) { forRoutes(t, rngRoute, footprintAccounting) }

func TestFootprintContextMatchesSerial(t *testing.T) {
	forRoutes(t, seedRoutes[1:], footprintAccounting)
}

func TestVariableBeatsUniformDensity(t *testing.T) {
	// The headline result: variable correction needs fewer cells than
	// uniform BCH-16 on everything, and more than ideal.
	e := videoOf(t)
	sv := footprintUnder(t, e, core.PaperAssignment())
	su := footprintUnder(t, e, core.UniformAssignment())
	si := footprintUnder(t, e, core.IdealAssignment())
	if !(si.Cells < sv.Cells && sv.Cells < su.Cells) {
		t.Fatalf("cells: ideal %.0f, variable %.0f, uniform %.0f — ordering violated",
			si.Cells, sv.Cells, su.Cells)
	}
	saved := (su.Cells - sv.Cells) / su.Cells
	if saved < 0.02 {
		t.Fatalf("variable correction saves only %.1f%% vs uniform", saved*100)
	}
}

func TestECCOverheadEliminationVsUniform(t *testing.T) {
	// Paper: ~47% of the error correction overhead eliminated. Exact value
	// depends on the video; require a substantial cut.
	e := videoOf(t)
	sv := footprintUnder(t, e, core.PaperAssignment())
	su := footprintUnder(t, e, core.UniformAssignment())
	cut := 1 - sv.ParityBits/su.ParityBits
	if cut < 0.2 {
		t.Fatalf("variable correction cuts only %.1f%% of parity bits", cut*100)
	}
}

// storeLeavesInput: a round trip hands back a copy and leaves every payload
// of the input video as it was.
func storeLeavesInput(t *testing.T, r route) {
	e := videoOf(t)
	if _, _, err := variableSystem(t).StoreContext(context.Background(), e.v, e.parts, r.opts(7)); err != nil {
		t.Fatal(err)
	}
	// The corpus guard compares every payload bit with the entry as built.
}

func TestStorePreservesOriginal(t *testing.T) { forRoutes(t, rngRoute, storeLeavesInput) }

func TestStoreContextDoesNotMutateInput(t *testing.T) { forRoutes(t, seedRoutes, storeLeavesInput) }

// flipsUnder stores the corpus video partitioned under a once per seed and
// returns the flips of each trip.
func flipsUnder(t *testing.T, a core.ClassAssignment, seeds ...int64) []int {
	t.Helper()
	e := videoOf(t)
	s, parts := systemOf(t, a), e.an.Partition(a)
	var flips []int
	for _, seed := range seeds {
		_, n, err := s.StoreContext(context.Background(), e.v, parts, StoreOpts{Rng: rand.New(rand.NewSource(seed))})
		if err != nil {
			t.Fatal(err)
		}
		flips = append(flips, n)
	}
	return flips
}

func TestStoreInjectsAtNoneRate(t *testing.T) {
	// With the raw substrate rate of 1e-3 on unprotected segments, a video
	// with tens of kilobits in class None should see some flips.
	if flips := flipsUnder(t, core.PaperAssignment(), 0, 1, 2, 3, 4, 5, 6, 7, 8, 9); reflect.DeepEqual(flips, make([]int, 10)) {
		t.Fatal("no errors injected across 10 runs at RBER 1e-3")
	}
}

func TestIdealStoreInjectsNothing(t *testing.T) {
	if flips := flipsUnder(t, core.IdealAssignment(), 0, 1, 2, 3, 4); !reflect.DeepEqual(flips, make([]int, 5)) {
		t.Fatalf("ideal correction must be error-free: flips %v", flips)
	}
}

func TestUniformStoreEffectivelyClean(t *testing.T) {
	// 1e-16 on a ~100kbit video: no flips in any reasonable number of runs.
	if flips := flipsUnder(t, core.UniformAssignment(), 9); flips[0] != 0 {
		t.Fatalf("uniform BCH-16 store flipped %d bits", flips[0])
	}
}

// storedDecodes: the damaged copy a round trip returns decodes, on either
// route.
func storedDecodes(t *testing.T, r route) {
	e := videoOf(t)
	stored, _, err := variableSystem(t).StoreContext(context.Background(), e.v, e.parts, r.opts(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := codec.DecodeContext(context.Background(), stored, codec.DecodeOptions{}, 1); err != nil {
		t.Fatalf("stored video failed to decode: %v", err)
	}
}

func TestStoredVideoStillDecodes(t *testing.T) { forRoutes(t, rngRoute, storedDecodes) }

// TestStoreContextRoundTripDecodes makes sure the seeded path composes with
// the decoder exactly like the rng path does.
func TestStoreContextRoundTripDecodes(t *testing.T) { forRoutes(t, seedRoutes, storedDecodes) }

func TestQualityLossBounded(t *testing.T) {
	// End-to-end §7 sanity: the variable-correction store should cost well
	// under a few dB versus the clean decode on this small suite member.
	e := videoOf(t)
	clean, err := codec.DecodeContext(context.Background(), e.v, codec.DecodeOptions{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := variableSystem(t)
	worst := 0.0
	for run := 0; run < 5; run++ {
		stored, _, err := s.StoreContext(context.Background(), e.v, e.parts, StoreOpts{Rng: rand.New(rand.NewSource(int64(100 + run)))})
		if err != nil {
			t.Fatal(err)
		}
		dec, err := codec.DecodeContext(context.Background(), stored, codec.DecodeOptions{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		p, _ := quality.PSNRContext(context.Background(), clean, dec, 1)
		if loss := quality.MaxPSNR - p; loss > worst {
			worst = loss
		}
	}
	// The tiny test video concentrates importance, so allow generous slack;
	// the real bound is exercised by the Figure 11 experiment.
	if worst > 40 {
		t.Fatalf("worst-case quality loss %.1f dB is catastrophic", worst)
	}
}

func TestLongerScrubIntervalRaisesRates(t *testing.T) {
	short, _ := New(Config{Substrate: mlc.Default(), Assignment: core.PaperAssignment(), ScrubMonths: 3})
	long, _ := New(Config{Substrate: mlc.Default(), Assignment: core.PaperAssignment(), ScrubMonths: 12})
	if long.RBER() <= short.RBER() {
		t.Fatalf("12-month scrub RBER %g <= 3-month %g", long.RBER(), short.RBER())
	}
}

// partitionMismatch: a partition list shorter than the video is refused
// with ErrPartitionMismatch by the footprint and by the round trip.
func partitionMismatch(t *testing.T, r route) {
	e := videoOf(t)
	s := variableSystem(t)
	if _, err := s.FootprintContext(context.Background(), e.v, e.parts[:1], e.pixels, max(r.workers, 1)); !errors.Is(err, ErrPartitionMismatch) {
		t.Fatalf("FootprintContext: got %v", err)
	}
	if _, _, err := s.StoreContext(context.Background(), e.v, e.parts[:1], r.opts(1)); !errors.Is(err, ErrPartitionMismatch) {
		t.Fatalf("StoreContext: got %v", err)
	}
}

func TestPartitionCountMismatch(t *testing.T) { forRoutes(t, rngRoute, partitionMismatch) }

func TestPartitionMismatchSentinel(t *testing.T) { forRoutes(t, seedRoutes, partitionMismatch) }

// storedPayloads stores the corpus video with opts and returns a copy of
// every stored payload and the flip count, releasing the stored copy.
func storedPayloads(t *testing.T, s *System, opts StoreOpts) ([][]byte, int) {
	t.Helper()
	e := videoOf(t)
	stored, flips, err := s.StoreContext(context.Background(), e.v, e.parts, opts)
	if err != nil {
		t.Fatal(err)
	}
	payloads := make([][]byte, len(stored.Frames))
	for i, f := range stored.Frames {
		payloads[i] = bytes.Clone(f.Payload)
	}
	stored.Release()
	return payloads, flips
}

func BenchmarkStore(b *testing.B) {
	b.ReportAllocs()
	e := videoOf(b)
	s := variableSystem(b)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.StoreContext(context.Background(), e.v, e.parts, StoreOpts{Rng: rng}); err != nil {
			b.Fatal(err)
		}
	}
}
