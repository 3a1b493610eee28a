package store

import (
	"context"
	"math/rand"
	"testing"

	"videoapp/internal/bch"
	"videoapp/internal/core"
	"videoapp/internal/mlc"
	"videoapp/internal/sim"
)

// blockFlips is the test oracle of the store's error model, an independent
// per-block BCH simulation: raw substrate errors at rate rber land on bits
// payload bits laid out in 512-bit blocks, each carrying the 10·t parity
// bits of a BCH-t code. A block with at most t errors is corrected; beyond t
// (and always when t is 0) the errors that landed in its payload survive.
// It returns the surviving payload errors.
func blockFlips(rng *rand.Rand, bits int64, t int, rber float64) int {
	flips := 0
	for off := int64(0); off < bits; off += bch.BlockDataBits {
		data := min(bits-off, bch.BlockDataBits)
		errs, inData := 0, 0
		sim.VisitErrorPositions(rng, data+int64(10*t), rber, func(pos int64) {
			errs++
			if pos < data {
				inData++
			}
		})
		if errs > t {
			flips += inData
		}
	}
	return flips
}

// TestBlockAccurateMatchesAnalyticRates holds the residual rates the store
// injects to blockFlips: the raw substrate rate on an unprotected scheme,
// and the §6.4 BCH residual on protected ones at a scrub interval long
// enough (48 months, RBER 2.5e-3) for blocks to fail. It also checks that
// the injector realises its rate: StoreContext's flips on a video stored
// unprotected track the analytic rate.
func TestBlockAccurateMatchesAnalyticRates(t *testing.T) {
	uniform := func(sc bch.Scheme) core.ClassAssignment {
		return core.ClassAssignment{Bounds: []core.ClassBound{{MaxClass: 1 << 30, Scheme: sc}}, Header: bch.SchemeBCH16}
	}
	for _, tc := range []struct {
		scheme bch.Scheme
		months float64
	}{{bch.SchemeNone, 0}, {bch.SchemeBCH6, 48}, {bch.SchemeBCH7, 48}} {
		sys, err := New(Config{Substrate: mlc.Default(), Assignment: uniform(tc.scheme), ScrubMonths: tc.months})
		if err != nil {
			t.Fatal(err)
		}
		const bits = 1 << 28
		want := sys.residualRate(tc.scheme)
		got := float64(blockFlips(rand.New(rand.NewSource(1)), bits, tc.scheme.T, sys.RBER())) / bits
		if got < want/2 || got > want*2 {
			t.Fatalf("%s at %v months: per-block simulation %.2e, analytic residual rate %.2e", tc.scheme.Name, tc.months, got, want)
		}
	}

	e := videoOf(t)
	v := e.v
	sys := systemOf(t, uniform(bch.SchemeNone))
	parts := e.an.Partition(uniform(bch.SchemeNone))
	const runs = 40
	var flips float64
	for run := 0; run < runs; run++ {
		_, n, err := sys.StoreContext(context.Background(), v, parts, StoreOpts{Rng: rand.New(rand.NewSource(int64(run)))})
		if err != nil {
			t.Fatal(err)
		}
		flips += float64(n)
	}
	got, want := flips/runs/float64(v.TotalPayloadBits()), sys.residualRate(bch.SchemeNone)
	if got < want/2 || got > want*2 {
		t.Fatalf("unprotected store flip rate %.2e, want ~%.0e", got, want)
	}
}
