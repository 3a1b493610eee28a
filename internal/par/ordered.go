package par

import (
	"context"
	"runtime/pprof"
	"strconv"
)

// MapOrdered is the ordered parallel map over a stream: next yields items
// one at a time (ok == false ends the stream), fn turns item i into a
// result on one of up to window concurrent goroutines, and emit receives
// the results strictly in item order on the calling goroutine. It is the
// fan-out for coarse, independent units that must be committed in order —
// the closed-GOP chunks of the streaming pipeline.
//
// The reorder window is bounded: at most window items are between next and
// emit at any time, plus one item next has produced ahead and one result
// emit is consuming, so a slow emit or a slow head item exerts backpressure
// all the way to next. window <= 1 runs next, fn and emit inline on the
// calling goroutine, one item at a time.
//
// Errors follow the serial loop: items are committed in order, so the
// error returned is that of the lowest failing item (fn's or emit's), and
// an error from next is returned only once every earlier item has been
// emitted successfully. After the first error nothing more is emitted, the
// context passed to next and fn is cancelled, and MapOrdered returns once
// every goroutine it started has finished. If ctx itself is cancelled,
// ctx.Err() is returned.
//
// With stage != "" each fn call runs under the pprof labels
// {stage: stage, itemKey: i}, inherited by any labelled fan-out inside fn.
func MapOrdered[T, R any](
	ctx context.Context, window int, stage, itemKey string,
	next func(ctx context.Context) (item T, ok bool, err error),
	fn func(ctx context.Context, i int, item T) (R, error),
	emit func(R) error,
) error {
	run := fn
	if stage != "" {
		run = func(ctx context.Context, i int, item T) (r R, err error) {
			pprof.Do(ctx, pprof.Labels("stage", stage, itemKey, strconv.Itoa(i)), func(ctx context.Context) {
				r, err = fn(ctx, i, item)
			})
			return r, err
		}
	}
	if window <= 1 {
		for i := 0; ; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			item, ok, err := next(ctx)
			if err != nil || !ok {
				return err
			}
			r, err := run(ctx, i, item)
			if err != nil {
				return err
			}
			if err := emit(r); err != nil {
				return err
			}
		}
	}

	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// One slot per submitted item, queued in item order; the item's worker
	// fills it and closes done.
	type slot struct {
		r    R
		err  error
		done chan struct{}
	}
	// tokens bounds the items between submission and commit; pending can
	// hold every token holder, so queueing a slot never blocks.
	tokens := make(chan struct{}, window)
	pending := make(chan *slot, window)
	var srcErr error
	go func() {
		defer close(pending)
		for i := 0; ctx.Err() == nil; i++ {
			item, ok, err := next(ctx)
			if err != nil || !ok {
				srcErr = err
				return
			}
			select {
			case tokens <- struct{}{}:
			case <-ctx.Done():
				return
			}
			s := &slot{done: make(chan struct{})}
			pending <- s
			go func() {
				defer close(s.done)
				s.r, s.err = run(ctx, i, item)
			}()
		}
	}()

	// Commit in order. After a failure the loop keeps draining so that
	// every worker and the producer have finished before returning.
	var firstErr error
	for s := range pending {
		<-s.done
		<-tokens
		switch {
		case firstErr != nil:
			continue
		case s.err != nil:
			firstErr = s.err
		case ctx.Err() != nil:
			firstErr = ctx.Err()
		default:
			firstErr = emit(s.r)
		}
		if firstErr != nil {
			cancel()
		}
	}
	if err := parent.Err(); err != nil {
		return err
	}
	if firstErr != nil {
		return firstErr
	}
	return srcErr
}
