package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersNormalization(t *testing.T) {
	if Workers(0) != runtime.GOMAXPROCS(0) || Workers(-3) != runtime.GOMAXPROCS(0) {
		t.Fatal("non-positive worker counts must map to GOMAXPROCS")
	}
	if Workers(7) != 7 {
		t.Fatal("positive worker counts must pass through")
	}
}

func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		const n = 257
		var counts [n]atomic.Int32
		if err := ForEach(context.Background(), n, workers, func(i int) error {
			counts[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	if err := ForEach(context.Background(), 0, 4, func(int) error { return errors.New("must not run") }); err != nil {
		t.Fatal(err)
	}
}

func TestForEachReturnsLowestIndexError(t *testing.T) {
	want := errors.New("boom")
	for _, workers := range []int{1, 4} {
		err := ForEach(context.Background(), 16, workers, func(i int) error {
			if i == 3 || i == 11 {
				return fmt.Errorf("item %d: %w", i, want)
			}
			return nil
		})
		if !errors.Is(err, want) {
			t.Fatalf("workers=%d: got %v", workers, err)
		}
		// The serial path must surface exactly the first failing index.
		if workers == 1 && err.Error() != "item 3: boom" {
			t.Fatalf("serial error = %v", err)
		}
	}
}

func TestForEachCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var started atomic.Int32
		done := make(chan error, 1)
		go func() {
			done <- ForEach(ctx, 1<<20, workers, func(i int) error {
				if started.Add(1) == int32(workers) {
					cancel()
				}
				time.Sleep(time.Millisecond)
				return nil
			})
		}()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d: got %v", workers, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("workers=%d: ForEach did not return after cancellation", workers)
		}
		if s := started.Load(); s > 1<<19 {
			t.Fatalf("workers=%d: %d items started after prompt cancellation", workers, s)
		}
		cancel()
	}
}

func TestForEachPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := ForEach(ctx, 8, 2, func(int) error { return errors.New("must not run") })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v", err)
	}
}

// TestClosedSpans: items with no references stand alone, a backward
// reference fuses a run from its target on, and a forward one fuses it up
// to its target: no cut separates an item from anything it references.
func TestClosedSpans(t *testing.T) {
	for _, tc := range []struct {
		refs [][2]int // each item's lowest and highest reference
		want string
	}{
		{nil, "[]"},
		{[][2]int{{3, -1}, {3, -1}, {3, -1}}, "[[0 1] [1 2] [2 3]]"},
		{[][2]int{{4, -1}, {0, 0}, {1, 1}, {4, -1}}, "[[0 3] [3 4]]"},
		{[][2]int{{4, -1}, {2, 2}, {4, -1}, {4, -1}}, "[[0 1] [1 3] [3 4]]"},
		{[][2]int{{4, -1}, {4, -1}, {4, -1}, {0, 0}}, "[[0 4]]"},
	} {
		got := ClosedSpans(len(tc.refs), func(i int) (int, int) { return tc.refs[i][0], tc.refs[i][1] })
		if fmt.Sprint(got) != tc.want {
			t.Fatalf("ClosedSpans(%v) = %v, want %s", tc.refs, got, tc.want)
		}
	}
}
