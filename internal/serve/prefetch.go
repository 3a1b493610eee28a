package serve

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"videoapp/internal/cache"
	"videoapp/internal/obs"
)

// prefetchQueueCap bounds the job queue; a full queue drops new readahead
// (foreground traffic is outrunning the decoders, so more readahead would
// only add memory pressure).
const prefetchQueueCap = 64

// prefetchJob is one readahead target: warm chunk index of the named
// tenant, in the cache space the tenant had when the job was scheduled. A
// space mismatch at execution time means the archive was reopened (new
// generation) and the job is stale.
type prefetchJob struct {
	tenant string
	space  string
	index  int
}

// prefetcher warms the chunks a sequential reader is about to ask for: a
// request for chunk i that looks sequential (see schedule) queues background
// loads of up to depth chunks past i through the same singleflight cache
// namespace the foreground path uses, so a steady reader's next request is a
// hit and the decode never sits on the request's critical path.
//
// It keeps no record of its targets. Whether one is already warm or warming
// is a question to the cache (Contains covers resident and in-flight keys),
// and the outcome of a load rides the cached value as chunkPayload.prefetched:
// handleChunk counts the first hit useful, the cache's removal hook (set in
// NewCatalog) counts an entry that leaves unserved wasted.
//
// Readahead is strictly best-effort and bounded: a fixed worker pool and a
// drop-on-full queue. It never fires through an open circuit breaker, never
// records breaker outcomes itself (a background failure must not open the
// breaker on foreground traffic), and re-acquires its tenant by name at
// execution time, so a Removed (retired) archive drops its queued jobs
// instead of being reopened. close() cancels in-flight readahead decodes via
// the loader contexts; after it schedule is a no-op.
type prefetcher struct {
	c      *Catalog
	depth  int
	ctx    context.Context
	cancel context.CancelFunc
	jobs   chan prefetchJob
	wg     sync.WaitGroup

	inFlight atomic.Int64
}

// newPrefetcher starts the worker pool. depth must be >= 1.
func newPrefetcher(c *Catalog, depth int) *prefetcher {
	//vetvideoapp:allow ctxfirst — deliberate detachment: readahead outlives any single request; its lifecycle is the prefetcher's close, not a caller context
	ctx, cancel := context.WithCancel(context.Background())
	p := &prefetcher{
		c:      c,
		depth:  depth,
		ctx:    ctx,
		cancel: cancel,
		jobs:   make(chan prefetchJob, prefetchQueueCap),
	}
	workers := min(max(runtime.GOMAXPROCS(0), 2), 4)
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.run()
	}
	return p
}

// close stops the workers and cancels in-flight readahead loads. It does
// not wait for loads that already entered the decoder; their loader
// contexts are cancelled and they unwind on their own.
func (p *prefetcher) close() {
	p.cancel()
	p.wg.Wait()
}

// schedule queues readahead past chunk i of an archive of n chunks, as far
// ahead as the evidence that i's requester reads sequentially warrants. The
// evidence is what the server already holds, so no reader is tracked:
//
//   - claimed: the response to i consumed a readahead load (hit or coalesced
//     flight). A reader is following the warmed window: the full depth.
//   - i is the start of a stream, or chunk i-1 is resident or loading —
//     someone was just here: one chunk, so a reader that seeks pays one
//     foreground miss and is at full depth from its next request.
//   - neither (a random read, a backward scan, a probe): nothing.
//
// Targets already resident or loading, or not fitting the queue, are
// skipped; a target queued but not yet started may be queued again, which
// costs one slot and one probe when the worker drops it. The call is
// non-blocking and runs on the foreground request path.
func (p *prefetcher) schedule(tenant, space string, i, n int, claimed bool) {
	select {
	case <-p.ctx.Done():
		return // closed: no worker would ever take the job
	default:
	}
	sp := cache.In(p.c.cache, space)
	depth := p.depth
	if !claimed {
		if i > 0 && !sp.Contains(i-1) {
			return
		}
		depth = 1
	}
	for j := i + 1; j <= i+depth && j < n; j++ {
		if sp.Contains(j) {
			continue
		}
		select {
		case p.jobs <- prefetchJob{tenant: tenant, space: space, index: j}:
		default: // queue full: drop
		}
	}
}

// run is one worker: execute jobs until the prefetcher closes.
func (p *prefetcher) run() {
	defer p.wg.Done()
	for {
		select {
		case <-p.ctx.Done():
			return
		case job := <-p.jobs:
			p.execute(job)
		}
	}
}

// execute performs one readahead load. The tenant is re-acquired by name,
// so a Removed tenant (acquire fails), a reopened one (space mismatch) and
// an open breaker all drop the job before any archive work, as does a target
// someone else has warmed or is warming. The load itself goes through the
// same Space.GetOrLoad as foreground requests — one flight per (space,
// chunk) no matter who asks first — and is counted where it runs, in the
// loader: issued before anyone can see the value, so useful + wasted never
// exceeds issued.
func (p *prefetcher) execute(job prefetchJob) {
	c := p.c
	t, a, space, release, err := c.acquire(job.tenant)
	if err != nil {
		return
	}
	defer release()
	sp := cache.In(c.cache, job.space)
	if space != job.space || !t.breaker.allow(time.Now()) || sp.Contains(job.index) {
		return
	}

	c.observer.Gauge(obs.GaugeServePrefetchInFlight, "", float64(p.inFlight.Add(1)))
	// The result is for the cache, not for us: its pin is dropped at once,
	// and an error was counted below.
	landed, _, err := sp.GetOrLoad(p.ctx, job.index, func(context.Context) (pl chunkPayload, err error) {
		// Deferred, so a load that panics (the cache turns that into the
		// flight's error) is counted like one that fails: issued work that
		// helped nobody. The breaker is deliberately not touched — only
		// foreground traffic may open it.
		defer func() {
			c.observer.Counter(obs.CtrServePrefetchIssued, t.name, 1)
			if pl.prefetched == nil {
				c.observer.Counter(obs.CtrServePrefetchWasted, t.name, 1)
			}
		}()
		// Not the detached context the cache offers: readahead loads under
		// the prefetcher's own, so close() aborts them.
		if pl, err = c.materialize(p.ctx, t, a, job.space, job.index); err == nil {
			pl.prefetched = new(atomic.Bool)
			pl.prefetched.Store(true)
		}
		return pl, err
	})
	if err == nil {
		landed.buf.Unpin()
	}
	c.observer.Gauge(obs.GaugeServePrefetchInFlight, "", float64(p.inFlight.Add(-1)))
}
