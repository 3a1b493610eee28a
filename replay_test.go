package videoapp

import (
	"bytes"
	"context"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"unsafe"

	"videoapp/internal/codec"
	"videoapp/internal/obs"
	"videoapp/internal/store"
)

// Round trips of one processed video share its parsed syntax: a stored frame
// that came back without a flip is reconstructed from the parse on record
// instead of being entropy-decoded again (DESIGN, "Parse once, flip many").

// replayOf is the replay tests' clip: twelve parkrun_like frames at w×h
// in GOPs of six, processed under the named assignment.
func replayOf(t testing.TB, w, h int, assign string) *entry {
	p := DefaultParams()
	p.GOPSize, p.SearchRange = 6, 8
	return corpusOf(t, clip{preset: "parkrun_like", w: w, h: h, frames: 12, p: p, assign: assign})
}

// intactFrames counts the frames a round trip with this seed stores without
// a single changed byte.
func intactFrames(t testing.TB, res *Result, seed int64) int {
	t.Helper()
	stored, _, err := res.system.StoreContext(context.Background(), res.Video, res.Partitions, store.StoreOpts{Seed: seed, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer stored.Release()
	n := 0
	for i, f := range stored.Frames {
		if bytes.Equal(f.Payload, res.Video.Frames[i].Payload) {
			n++
		}
	}
	return n
}

// TestRoundTripReplayHitRate pins the traffic of the parse record on a fixed
// seed: under the paper's assignment at least nine frames in ten of a repeat
// trip skip the entropy decoder — exactly the frames that came back intact —
// under an all-uncorrected assignment none does, and the first trip of a
// video records without replaying.
func TestRoundTripReplayHitRate(t *testing.T) {
	const seed = 1 // one of the twelve frames comes back flipped under the paper's assignment
	for _, tc := range []struct {
		name    string
		minRate float64
		maxRate float64
	}{
		{"paper", 0.9, 1},
		{"none", 0, 0},
	} {
		res := replayOf(t, 320, 176, tc.name).result(1)
		frames := len(res.Video.Frames)
		m := NewMetrics()
		ctx := ContextWithObserver(context.Background(), m)
		if _, _, err := res.StoreRoundTripContext(ctx, seed); err != nil {
			t.Fatal(err)
		}
		if n := m.Snapshot().CounterTotal(obs.CtrFramesReplayed); n != 0 {
			t.Fatalf("%s: first trip replayed %d frames; nothing was on record yet", tc.name, n)
		}
		if _, _, err := res.StoreRoundTripContext(ctx, seed); err != nil {
			t.Fatal(err)
		}
		snap := m.Snapshot()
		got, decoded := snap.CounterTotal(obs.CtrFramesReplayed), snap.CounterTotal(obs.CtrDecodeFrames)
		if decoded != int64(2*frames) {
			t.Fatalf("%s: decode_frames %d after two trips of %d frames", tc.name, decoded, frames)
		}
		if want := intactFrames(t, res, seed); got != int64(want) {
			t.Fatalf("%s: second trip replayed %d frames, %d came back intact", tc.name, got, want)
		}
		rate := float64(got) / float64(frames)
		t.Logf("%s: %d of %d frames replayed on the repeat trip", tc.name, got, frames)
		if rate < tc.minRate || rate > tc.maxRate {
			t.Fatalf("%s: replay rate %.2f outside [%.2f, %.2f]", tc.name, rate, tc.minRate, tc.maxRate)
		}
	}
}

// TestConcurrentRoundTripsShareSyntax runs round trips of one Result from
// several goroutines at once (the Monte-Carlo loop spread over a machine),
// at one and at four workers per trip: every trip must be bit-identical to
// the same seed run serially on a Result of its own. Run under -race this is
// the test of the record's publication.
func TestConcurrentRoundTripsShareSyntax(t *testing.T) {
	seeds := []int64{1, 2, 3, 1, 2, 3, 4, 4}
	serial := replayOf(t, 96, 64, "paper").result(1)
	want := make(map[int64]*Sequence)
	wantFlips := make(map[int64]int)
	for _, s := range seeds {
		if want[s] != nil {
			continue
		}
		// A clone never shares: the reference trips parse every frame.
		stored, flips, err := serial.system.StoreContext(context.Background(), serial.Video, serial.Partitions, store.StoreOpts{Seed: s, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		dec, err := codec.DecodeContext(context.Background(), stored.Clone(), codec.DecodeOptions{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		want[s], wantFlips[s] = dec, flips
	}
	for _, workers := range []int{1, 4} {
		res := replayOf(t, 96, 64, "paper").result(workers)
		var wg sync.WaitGroup
		for g, s := range seeds {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for rep := 0; rep < 3; rep++ {
					dec, flips, err := res.StoreRoundTripContext(context.Background(), s)
					if err != nil {
						t.Error(err)
						return
					}
					if flips != wantFlips[s] {
						t.Errorf("workers=%d goroutine %d seed %d: %d flips, serial %d", workers, g, s, flips, wantFlips[s])
					}
					if !sameSequence(dec, want[s]) {
						t.Errorf("workers=%d goroutine %d seed %d rep %d: decode differs from the serial parse", workers, g, s, rep)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestRoundTripReleasesStoredCopy: the stored copy a round trip decodes is
// pool-backed and the trip hands it back, so a repeat trip allocates its
// decoded frames and little else — not another macroblock-record arena.
func TestRoundTripReleasesStoredCopy(t *testing.T) {
	res := replayOf(t, 320, 176, "paper").result(1)
	nonePipe := NewPipeline(WithParams(res.Video.Params), WithAssignment(allNoneAssignment()), WithWorkers(1))
	noneParts := res.Analysis.Partition(allNoneAssignment())
	trips := map[string]func() error{
		"StoreRoundTripContext": func() error {
			_, _, err := res.StoreRoundTripContext(context.Background(), 5)
			return err
		},
		"RoundTripChunk": func() error {
			_, _, err := nonePipe.RoundTripChunk(context.Background(), res.Video, noneParts, 0, 5)
			return err
		},
	}
	var arena, planes uint64
	for _, f := range res.Video.Frames {
		arena += uint64(len(f.MBs)) * uint64(unsafe.Sizeof(codec.MBRecord{}))
		planes += uint64(res.Video.W * res.Video.H * 3 / 2)
	}
	// The pool must survive from one trip to the next.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for name, trip := range trips {
		if err := trip(); err != nil { // fills the pool
			t.Fatal(err)
		}
		// The least of a few trips: under the race detector sync.Pool drops
		// a quarter of what it is handed, on purpose.
		got := ^uint64(0)
		for i := 0; i < 8; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := trip(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			got = min(got, after.TotalAlloc-before.TotalAlloc)
		}
		t.Logf("%s: a repeat trip allocated %d bytes (decoded planes %d, record arena %d)", name, got, planes, arena)
		if got > planes+arena {
			t.Fatalf("%s: a repeat trip allocated %d bytes: more than its decoded planes (%d) plus a record arena (%d) — the stored copy was not released", name, got, planes, arena)
		}
	}
}
