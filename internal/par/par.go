// Package par is the shared worker-pool helper behind every parallel path
// in the system: GOP-parallel encoding and decoding, per-frame error
// injection and footprint accounting, the analysis fan-out and the quality
// metric workers. It provides deterministic, context-aware fan-out over an
// index space with a bounded number of goroutines, and optional
// runtime/pprof labelling so CPU profiles attribute samples to pipeline
// stages.
//
// ClosedSpans cuts a coded order into the independent units those fan-outs
// run over.
//
// Determinism contract: ForEach itself imposes no ordering between items, so
// callers must make items independent (write to disjoint slice elements,
// derive per-item RNGs from the item index) and perform any floating-point
// or otherwise order-sensitive reduction themselves, in index order, after
// ForEach returns. Under that discipline results are identical at every
// worker count.
package par

import (
	"context"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
)

// Workers normalizes a worker-count knob: values <= 0 select GOMAXPROCS.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ForEach runs fn(i) for every i in [0, n), using at most workers concurrent
// goroutines (workers <= 0 selects GOMAXPROCS; workers == 1 runs inline on
// the calling goroutine with no scheduling overhead).
//
// Cancellation is cooperative: ctx is polled before each item, no new items
// start after it is cancelled, and ctx.Err() is returned once the in-flight
// items drain. When items fail, the error of the lowest failing index is
// returned — the same error a serial loop would have surfaced first — and
// no further items are scheduled.
func ForEach(ctx context.Context, n, workers int, fn func(i int) error) error {
	return ForEachLabeled(ctx, n, workers, "", "", fn)
}

// ForEachLabeled is ForEach with runtime/pprof labels applied around the
// worker tasks, so CPU profiles attribute samples to pipeline stages.
//
// With stage != "" and itemKey == "", every worker runs its whole item loop
// under the label set {stage: stage} — the cheap mode for per-frame
// fan-outs with many small items. With itemKey != "" each item additionally
// runs under {itemKey: i} (e.g. stage=encode, gop=3), which costs one label
// set per item and suits coarse units such as GOPs or decode spans. With
// stage == "" no labels are applied and the behaviour and cost are exactly
// ForEach's. Labels never affect results: they only annotate profiles.
func ForEachLabeled(ctx context.Context, n, workers int, stage, itemKey string, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	run := fn
	if stage != "" && itemKey != "" {
		run = func(i int) error {
			var err error
			pprof.Do(ctx, pprof.Labels("stage", stage, itemKey, strconv.Itoa(i)), func(context.Context) {
				err = fn(i)
			})
			return err
		}
	}
	if workers == 1 {
		serial := func() error {
			for i := 0; i < n; i++ {
				if err := ctx.Err(); err != nil {
					return err
				}
				if err := run(i); err != nil {
					return err
				}
			}
			return nil
		}
		if stage == "" || itemKey != "" {
			return serial()
		}
		var err error
		pprof.Do(ctx, pprof.Labels("stage", stage), func(context.Context) { err = serial() })
		return err
	}

	var (
		next atomic.Int64
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	next.Store(-1)
	errs := make([]error, n)
	loop := func() {
		for {
			if stop.Load() || ctx.Err() != nil {
				return
			}
			i := int(next.Add(1))
			if i >= n {
				return
			}
			if err := run(i); err != nil {
				errs[i] = err
				stop.Store(true)
				return
			}
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if stage != "" && itemKey == "" {
				pprof.Do(ctx, pprof.Labels("stage", stage), func(context.Context) { loop() })
			} else {
				loop()
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ClosedSpans partitions [0, n) into maximal runs of consecutive items
// that reference no item outside the run, in either direction: the closed
// spans of a coded order, each decodable or analysable on its own. refs(i)
// returns the lowest and highest in-range item that item i references (n
// and -1 when it references none). It is called twice per item, so that the
// cut keeps no table but the suffix minima.
func ClosedSpans(n int, refs func(i int) (lo, hi int)) [][2]int {
	if n == 0 {
		return nil
	}
	// A cut before item c is sound iff no item at or after c references an
	// item before c (suffix min) and no item before c references one at or
	// after c (prefix max).
	sufMin := make([]int, n+1)
	sufMin[n] = n
	for i := n - 1; i >= 0; i-- {
		lo, _ := refs(i)
		sufMin[i] = min(lo, sufMin[i+1])
	}
	var spans [][2]int
	start, preMax := 0, -1
	for c := 1; c < n; c++ {
		_, hi := refs(c - 1)
		preMax = max(preMax, hi)
		if sufMin[c] >= c && preMax < c {
			spans = append(spans, [2]int{start, c})
			start = c
		}
	}
	return append(spans, [2]int{start, n})
}
