package store

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"videoapp/internal/bch"
	"videoapp/internal/codec"
	"videoapp/internal/core"
	"videoapp/internal/mlc"
)

// TestBlockAccurateMatchesAnalyticRates cross-validates the two error
// models: over many runs, the block-accurate simulator's flip counts on an
// unprotected segment must track the raw substrate rate, and on protected
// segments the analytic uncorrectable-block probability.
func TestBlockAccurateMatchesAnalyticRates(t *testing.T) {
	v, _, _, _ := buildVideo(t)
	// Force everything into one class so one scheme covers all payload.
	uniformNone := core.ClassAssignment{
		Bounds: []core.ClassBound{{MaxClass: 1 << 30, Scheme: bch.SchemeNone}},
		Header: bch.SchemeBCH16,
	}
	an, err := core.AnalyzeContext(context.Background(), v, core.DefaultOptions(), 1)
	if err != nil {
		t.Fatal(err)
	}
	parts := an.Partition(uniformNone)
	sys, err := New(Config{Substrate: mlc.Default(), Assignment: uniformNone, BlockAccurate: true})
	if err != nil {
		t.Fatal(err)
	}
	totalBits := float64(v.TotalPayloadBits())
	const runs = 40
	var flips float64
	for run := 0; run < runs; run++ {
		_, n, err := sys.StoreContext(context.Background(), v, parts, StoreOpts{Rng: rand.New(rand.NewSource(int64(run)))})
		if err != nil {
			t.Fatal(err)
		}
		flips += float64(n)
	}
	got := flips / runs / totalBits
	want := 1e-3
	if got < want/2 || got > want*2 {
		t.Fatalf("unprotected block-accurate flip rate %.2e, want ~%.0e", got, want)
	}
}

func TestBlockAccurateProtectedNearlySilent(t *testing.T) {
	// With BCH-6 on everything at RBER 1e-3, block failures are ~2e-6 per
	// block: tens of runs over a small video should see at most a couple.
	v, _, _, _ := buildVideo(t)
	allBCH6 := core.ClassAssignment{
		Bounds: []core.ClassBound{{MaxClass: 1 << 30, Scheme: bch.SchemeBCH6}},
		Header: bch.SchemeBCH16,
	}
	an, err := core.AnalyzeContext(context.Background(), v, core.DefaultOptions(), 1)
	if err != nil {
		t.Fatal(err)
	}
	parts := an.Partition(allBCH6)
	sys, err := New(Config{Substrate: mlc.Default(), Assignment: allBCH6, BlockAccurate: true})
	if err != nil {
		t.Fatal(err)
	}
	totalFlips := 0
	for run := 0; run < 30; run++ {
		_, n, err := sys.StoreContext(context.Background(), v, parts, StoreOpts{Rng: rand.New(rand.NewSource(int64(1000 + run)))})
		if err != nil {
			t.Fatal(err)
		}
		totalFlips += n
	}
	// Expected failed blocks: blocks × runs × P(fail) << 1.
	blocks := float64(v.TotalPayloadBits()) / 512
	expect := blocks * 30 * bch.UncorrectableBlockProb(6, 1e-3)
	if float64(totalFlips) > math.Max(expect*50, 20) {
		t.Fatalf("protected store flipped %d bits; expected ~%.3f failures", totalFlips, expect)
	}
}

func TestBlockAccurateStillDecodes(t *testing.T) {
	v, _, parts, _ := buildVideo(t)
	sys, err := New(Config{Substrate: mlc.Default(), Assignment: core.PaperAssignment(), BlockAccurate: true})
	if err != nil {
		t.Fatal(err)
	}
	stored, _, err := sys.StoreContext(context.Background(), v, parts, StoreOpts{Rng: rand.New(rand.NewSource(2))})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := codec.DecodeContext(context.Background(), stored, codec.DecodeOptions{}, 1); err != nil {
		t.Fatal(err)
	}
}
