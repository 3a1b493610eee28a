package par

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// counter is a stream of the integers [0, n); n < 0 never ends.
func counter(n int) func(context.Context) (int, bool, error) {
	i := 0
	return func(context.Context) (int, bool, error) {
		if n >= 0 && i >= n {
			return 0, false, nil
		}
		i++
		return i - 1, true, nil
	}
}

// settledGoroutines waits for goroutines that have delivered their result
// but not yet exited, and returns the count.
func settledGoroutines(atMost int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > atMost && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

func TestMapOrderedDeliversInOrder(t *testing.T) {
	const n = 200
	for _, window := range []int{1, 2, 3, 8} {
		rng := rand.New(rand.NewSource(int64(window)))
		delays := make([]time.Duration, n)
		for i := range delays {
			delays[i] = time.Duration(rng.Intn(300)) * time.Microsecond
		}
		var got []int
		err := MapOrdered(context.Background(), window, "test", "item", counter(n),
			func(_ context.Context, i, item int) (int, error) {
				if i != item {
					t.Errorf("window=%d: fn index %d for item %d", window, i, item)
				}
				time.Sleep(delays[i])
				return item * item, nil
			},
			func(r int) error {
				got = append(got, r)
				return nil
			})
		if err != nil {
			t.Fatalf("window=%d: %v", window, err)
		}
		if len(got) != n {
			t.Fatalf("window=%d: %d results, want %d", window, len(got), n)
		}
		for i, r := range got {
			if r != i*i {
				t.Fatalf("window=%d: result %d is %d, want %d", window, i, r, i*i)
			}
		}
	}
}

// TestMapOrderedWindowBound checks both bounds at every step: never more
// than window fn calls at once, and never more than window+2 items between
// next and the end of emit.
func TestMapOrderedWindowBound(t *testing.T) {
	const n = 120
	for _, window := range []int{1, 2, 3, 8} {
		var pulled, emitted, running atomic.Int64
		src := counter(n)
		check := func(where string) {
			if d := pulled.Load() - emitted.Load(); d > int64(window)+2 {
				t.Errorf("window=%d: %d items in flight at %s, bound %d", window, d, where, window+2)
			}
		}
		err := MapOrdered(context.Background(), window, "", "",
			func(ctx context.Context) (int, bool, error) {
				item, ok, err := src(ctx)
				if ok {
					pulled.Add(1)
					check("next")
				}
				return item, ok, err
			},
			func(_ context.Context, i, _ int) (int, error) {
				if r := running.Add(1); r > int64(window) {
					t.Errorf("window=%d: %d fn calls at once", window, r)
				}
				defer running.Add(-1)
				// A slow head item every so often fills the window behind it.
				if i%7 == 0 {
					time.Sleep(2 * time.Millisecond)
				}
				check("fn")
				return i, nil
			},
			func(int) error {
				time.Sleep(50 * time.Microsecond)
				check("emit")
				emitted.Add(1)
				return nil
			})
		if err != nil {
			t.Fatalf("window=%d: %v", window, err)
		}
		if emitted.Load() != n {
			t.Fatalf("window=%d: emitted %d of %d", window, emitted.Load(), n)
		}
	}
}

// TestMapOrderedErrorOrder pins the serial loop's error: the lowest failing
// item wins however the failures race, nothing after it is emitted, and a
// source error waits for every earlier item.
func TestMapOrderedErrorOrder(t *testing.T) {
	errAt := func(i int) error { return fmt.Errorf("item %d failed", i) }
	srcBoom := errors.New("source failed")
	cases := []struct {
		name     string
		fnFails  map[int]time.Duration // failing item -> how long it takes to fail
		emitFail int                   // item whose emit fails, -1 for none
		srcFail  int                   // item the source fails to produce, -1 for none
		want     string
		emitted  []int
	}{
		{"slow low item beats fast high item", map[int]time.Duration{3: 5 * time.Millisecond, 5: 0}, -1, -1, "item 3 failed", []int{0, 1, 2}},
		{"emit error beats later fn error", map[int]time.Duration{4: 0}, 2, -1, "emit 2 failed", []int{0, 1}},
		{"fn error beats later emit error", map[int]time.Duration{1: time.Millisecond}, 3, -1, "item 1 failed", []int{0}},
		{"fn error beats later source error", map[int]time.Duration{4: 5 * time.Millisecond}, -1, 6, "item 4 failed", []int{0, 1, 2, 3}},
		{"source error after all earlier items", nil, -1, 6, "source failed", []int{0, 1, 2, 3, 4, 5}},
	}
	for _, tc := range cases {
		for _, window := range []int{1, 2, 4, 8} {
			var emitted []int
			src := counter(64)
			err := MapOrdered(context.Background(), window, "", "",
				func(ctx context.Context) (int, bool, error) {
					item, ok, err := src(ctx)
					if ok && item == tc.srcFail {
						return 0, false, srcBoom
					}
					return item, ok, err
				},
				func(_ context.Context, i, _ int) (int, error) {
					if d, fails := tc.fnFails[i]; fails {
						time.Sleep(d)
						return 0, errAt(i)
					}
					return i, nil
				},
				func(i int) error {
					if i == tc.emitFail {
						return fmt.Errorf("emit %d failed", i)
					}
					emitted = append(emitted, i)
					return nil
				})
			if err == nil || err.Error() != tc.want {
				t.Errorf("%s, window=%d: err = %v, want %q", tc.name, window, err, tc.want)
			}
			if !reflect.DeepEqual(emitted, tc.emitted) {
				t.Errorf("%s, window=%d: emitted %v, want %v", tc.name, window, emitted, tc.emitted)
			}
		}
	}
}

// TestMapOrderedStopsWithoutDeadlock covers the two ways a run over an
// endless stream ends early — the consumer stops (emit fails) and the
// caller cancels — and checks that MapOrdered returns with every fn call
// finished and no goroutine left behind.
func TestMapOrderedStopsWithoutDeadlock(t *testing.T) {
	stop := errors.New("consumer stopped")
	for _, window := range []int{1, 2, 8} {
		for _, how := range []string{"emit error", "cancel"} {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			var started, finished atomic.Int64
			done := make(chan error, 1)
			go func() {
				done <- MapOrdered(ctx, window, "test", "item", counter(-1),
					func(ctx context.Context, i, _ int) (int, error) {
						started.Add(1)
						defer finished.Add(1)
						time.Sleep(100 * time.Microsecond)
						return i, ctx.Err()
					},
					func(i int) error {
						if i < 20 {
							return nil
						}
						if how == "cancel" {
							cancel()
							return nil
						}
						return stop
					})
			}()
			select {
			case err := <-done:
				want := stop
				if how == "cancel" {
					want = context.Canceled
				}
				if !errors.Is(err, want) {
					t.Errorf("window=%d, %s: err = %v, want %v", window, how, err, want)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("window=%d, %s: MapOrdered did not return", window, how)
			}
			cancel()
			if s, f := started.Load(), finished.Load(); s != f {
				t.Errorf("window=%d, %s: %d fn calls started, %d finished at return", window, how, s, f)
			}
			if s := started.Load(); s > 21+int64(window) {
				t.Errorf("window=%d, %s: %d items started, want at most %d", window, how, s, 21+window)
			}
			if after := settledGoroutines(before); after > before {
				t.Errorf("window=%d, %s: %d goroutines before, %d after", window, how, before, after)
			}
		}
	}
}

func TestMapOrderedPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, window := range []int{1, 4} {
		err := MapOrdered(ctx, window, "", "", counter(8),
			func(context.Context, int, int) (int, error) { return 0, errors.New("must not run") },
			func(int) error { return errors.New("must not run") })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("window=%d: got %v", window, err)
		}
	}
}

// TestMapOrderedInline pins window == 1: one item at a time in strict
// next, fn, emit order with no read-ahead — on the calling goroutine, so
// the unsynchronized log below is race-free.
func TestMapOrderedInline(t *testing.T) {
	var log []string
	src := counter(3)
	err := MapOrdered(context.Background(), 1, "test", "item",
		func(ctx context.Context) (int, bool, error) {
			item, ok, err := src(ctx)
			log = append(log, fmt.Sprint("next", item, ok))
			return item, ok, err
		},
		func(_ context.Context, i, _ int) (int, error) {
			log = append(log, fmt.Sprint("fn", i))
			return i, nil
		},
		func(i int) error {
			log = append(log, fmt.Sprint("emit", i))
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"next0 true", "fn0", "emit0",
		"next1 true", "fn1", "emit1",
		"next2 true", "fn2", "emit2",
		"next0 false",
	}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("inline order %v, want %v", log, want)
	}
}
