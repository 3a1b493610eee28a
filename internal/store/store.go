// Package store implements the end-to-end approximate video storage system:
// a partitioned video is laid out on the MLC substrate with per-segment BCH
// protection chosen by the VideoApp analysis, frame headers (including the
// pivot tables) are stored precisely, and reads inject the residual
// post-correction errors that the decoder then has to live with.
//
// Three designs from Figure 11 are expressible through the assignment:
// uniform correction (everything BCH-16), variable correction (Table 1) and
// ideal correction (error-free, overhead-free).
//
// StoreContext is the single round-trip entry point. For chunked streaming,
// FrameCosts/StatsFromCosts expose the footprint accounting at per-frame
// granularity so per-chunk accumulation reduces to exactly the batch totals,
// and StoreOpts.FrameOffset rebases the per-frame error streams so a chunk
// stored on its own draws the same bits it would inside the whole video.
package store

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"videoapp/internal/bch"
	"videoapp/internal/bitio"
	"videoapp/internal/codec"
	"videoapp/internal/core"
	"videoapp/internal/mlc"
	"videoapp/internal/obs"
	"videoapp/internal/par"
	"videoapp/internal/sim"
)

// ErrPartitionMismatch reports a partition list whose length does not match
// the video's frame count. It is the same sentinel the core package uses, so
// errors.Is matches it across both layers. Wrapped errors carry the counts.
var ErrPartitionMismatch = core.ErrPartitionMismatch

// Config describes one storage system design.
type Config struct {
	// Substrate is the physical cell model.
	Substrate mlc.Substrate
	// Assignment maps importance classes to correction schemes.
	Assignment core.ClassAssignment
	// ScrubMonths overrides the scrubbing interval (0 = substrate default).
	ScrubMonths float64
}

// System is a configured approximate storage system.
type System struct {
	cfg  Config
	rber float64
	// resid memoizes residualRate per scheme for every scheme reachable
	// through the assignment. It is built once in New and read-only after,
	// so concurrent injections share it without locking.
	resid map[bch.Scheme]float64
}

// New validates the configuration and builds a System.
func New(cfg Config) (*System, error) {
	if err := cfg.Substrate.Validate(); err != nil {
		return nil, err
	}
	s := &System{cfg: cfg}
	s.rber = cfg.Substrate.EffectiveRBER(cfg.ScrubMonths)
	s.resid = map[bch.Scheme]float64{}
	for _, b := range cfg.Assignment.Bounds {
		s.resid[b.Scheme] = s.computeResidualRate(b.Scheme)
	}
	s.resid[cfg.Assignment.Header] = s.computeResidualRate(cfg.Assignment.Header)
	return s, nil
}

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// RBER returns the raw bit error rate the system operates at.
func (s *System) RBER() float64 { return s.rber }

// residualRate returns the post-correction bit error rate for a scheme,
// memoized at New time for every scheme in the assignment. Schemes outside
// the assignment (possible with hand-built partitions) fall back to the
// direct computation.
func (s *System) residualRate(sc bch.Scheme) float64 {
	if r, ok := s.resid[sc]; ok {
		return r
	}
	return s.computeResidualRate(sc)
}

// computeResidualRate is the uncached residual-rate model: nominal Table 1
// rates at the substrate's reference scrub interval, the §6.4 recomputed
// BCH residual beyond it.
func (s *System) computeResidualRate(sc bch.Scheme) float64 {
	if sc.NominalRate == 0 {
		return 0 // ideal correction
	}
	if sc.T == 0 {
		return s.rber // no correction: the raw substrate rate
	}
	if s.cfg.ScrubMonths == 0 || s.cfg.ScrubMonths == s.cfg.Substrate.ScrubIntervalMonths {
		return sc.NominalRate
	}
	return bch.ResidualBitErrorRate(sc.T, s.rber)
}

// Stats is the physical storage footprint of one stored video.
type Stats struct {
	// PayloadBits and HeaderBits are the logical stream sizes.
	PayloadBits, HeaderBits int64
	// ParityBits is the total error-correction overhead in bits.
	ParityBits float64
	// Cells is the number of substrate cells consumed.
	Cells float64
	// CellsPerPixel is the paper's density metric: storage cells per
	// encoded video pixel (Figure 11's x-axis).
	CellsPerPixel float64
	// ECCOverhead is ParityBits divided by the protected bits.
	ECCOverhead float64
	// PerScheme breaks the payload down by protection level.
	PerScheme map[string]int64
}

// FrameCost is one frame's contribution to the footprint, computed
// independently per frame and merged in frame order so the totals are
// identical at every worker count. The chunked pipeline accumulates
// FrameCost slices chunk by chunk and reduces them once with
// StatsFromCosts, reproducing the batch Stats bit for bit.
type FrameCost struct {
	PayloadBits int64
	Cells       float64
	Parity      float64
	PerScheme   map[string]int64
}

// FrameCosts computes each frame's independent footprint contribution with
// per-frame fan-out across workers and cooperative cancellation. An observer
// attached to ctx (obs.With) receives the footprint stage span and per-frame
// progress; the aggregate counters and gauges are published by whoever runs
// the final reduction (FootprintContext, or the streaming accumulator via
// PublishFootprint).
func (s *System) FrameCosts(ctx context.Context, v *codec.Video, parts []core.FramePartition, workers int) ([]FrameCost, error) {
	if len(parts) != len(v.Frames) {
		return nil, fmt.Errorf("store: %w: %d partitions for %d frames", ErrPartitionMismatch, len(parts), len(v.Frames))
	}
	o := obs.From(ctx)
	defer obs.StartSpan(o, obs.StageFootprint).End()
	costs := make([]FrameCost, len(v.Frames))
	err := par.ForEachLabeled(ctx, len(v.Frames), workers, obs.StageFootprint, "", func(f int) error {
		ef := v.Frames[f]
		fc := FrameCost{PerScheme: map[string]int64{}}
		parts[f].VisitSegments(ef.PayloadBits(), func(seg core.Segment) {
			fc.PayloadBits += seg.Bits
			fc.PerScheme[seg.Scheme.Name] += seg.Bits
			fc.Cells += s.cfg.Substrate.CellsForBits(seg.Bits, seg.Scheme.Overhead())
			fc.Parity += float64(seg.Bits) * seg.Scheme.Overhead()
		})
		costs[f] = fc
		o.FrameDone(obs.StageFootprint, 1)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return costs, nil
}

// StatsFromCosts reduces per-frame costs to the video's Stats. The reduction
// runs in slice order with the same accumulation sequence as the serial
// batch path, so feeding it the concatenation of per-chunk FrameCosts slices
// yields floats bit-identical to one batch FootprintContext call.
// headerBits is the total precise region (frame headers + pivot tables);
// pixels scales the density metric (0 leaves CellsPerPixel zero).
func (s *System) StatsFromCosts(costs []FrameCost, headerBits, pixels int64) Stats {
	st := Stats{PerScheme: map[string]int64{}}
	var cells, parity float64
	for _, fc := range costs {
		st.PayloadBits += fc.PayloadBits
		cells += fc.Cells
		parity += fc.Parity
		for name, bits := range fc.PerScheme {
			st.PerScheme[name] += bits
		}
	}
	st.HeaderBits = headerBits
	headerScheme := s.cfg.Assignment.Header
	cells += s.cfg.Substrate.CellsForBits(st.HeaderBits, headerScheme.Overhead())
	parity += float64(st.HeaderBits) * headerScheme.Overhead()
	st.ParityBits = parity
	st.Cells = cells
	if pixels > 0 {
		st.CellsPerPixel = cells / float64(pixels)
	}
	total := float64(st.PayloadBits + st.HeaderBits)
	if total > 0 {
		st.ECCOverhead = parity / total
	}
	return st
}

// PublishFootprint reports the aggregate footprint counters and gauges of a
// reduced Stats to an observer, exactly as FootprintContext does for the
// batch path. The streaming pipeline calls it once after its final
// StatsFromCosts reduction so metrics reconcile with the batch run.
func PublishFootprint(o obs.Observer, st Stats) {
	for name, bits := range st.PerScheme {
		o.Counter(obs.CtrPayloadBits, name, bits)
	}
	o.Counter(obs.CtrHeaderBits, "", st.HeaderBits)
	o.Gauge(obs.GaugeCells, "", st.Cells)
	o.Gauge(obs.GaugeCellsPerPixel, "", st.CellsPerPixel)
}

// FootprintContext computes the storage cost of a partitioned video,
// including the precisely-stored frame headers and pivot tables, with
// per-frame fan-out across workers (workers = 1 is the serial form) and
// cooperative cancellation. Per-frame costs are accumulated independently
// and reduced in frame order, so the result is identical for every worker
// count. An observer attached to ctx (obs.With) receives the footprint
// stage span, per-frame progress, per-scheme payload-bit counters and the
// cell-density gauges.
func (s *System) FootprintContext(ctx context.Context, v *codec.Video, parts []core.FramePartition, pixels int64, workers int) (Stats, error) {
	costs, err := s.FrameCosts(ctx, v, parts, workers)
	if err != nil {
		return Stats{}, err
	}
	st := s.StatsFromCosts(costs, v.HeaderBits()+core.PivotOverheadBits(parts), pixels)
	PublishFootprint(obs.From(ctx), st)
	return st, nil
}

// StoreOpts configures one StoreContext round trip.
type StoreOpts struct {
	// Seed selects the deterministic per-frame error streams: every frame
	// draws from its own RNG seeded by a SplitMix64 finalizer over (Seed,
	// FrameOffset + frame), so the stored bits and flip count are a pure
	// function of (video, parts, Seed, FrameOffset) — never of Workers or
	// the goroutine schedule. Ignored when Rng is set.
	Seed int64
	// FrameOffset rebases the per-frame error streams: frame f of v draws
	// the stream of global frame FrameOffset+f. A chunk of a longer video
	// stored with its global first-frame position here receives exactly
	// the error pattern the full-video round trip would inject into those
	// frames, which is what makes single-GOP round trips from a chunked
	// archive bit-identical to the batch path. Ignored when Rng is set.
	FrameOffset int
	// Workers bounds the per-frame fan-out; <= 0 selects GOMAXPROCS.
	// Forced to 1 when Rng is set.
	Workers int
	// Rng, when non-nil, selects the serial error stream: one caller-owned
	// source drawn frame by frame in order. The committed Figure 11 and
	// scrub-sweep results of the reproduction draw from it. The outcome
	// then depends on the source's prior state, and the round trip runs on
	// a single worker.
	Rng *rand.Rand
}

// StoreContext simulates one write-scrub-read round trip: it returns a deep
// copy of v whose payload bits carry the residual errors of their assigned
// protection levels, plus the number of injected residual errors. Headers
// and pivots are stored precisely and come back intact (their nominal 1e-16
// rate is below any plausible per-video probability; the §6.4 scaling
// handles it analytically where needed).
//
// The returned copy is pool-backed: callers running repeated round trips
// (Monte-Carlo loops) should codec.Video.Release it once done with it so the
// next trip reuses its buffers. Skipping Release is always safe — the copy is
// then collected like any other garbage.
//
// Cancellation is cooperative, checked at frame boundaries. The observer
// attached to ctx (obs.With) receives the inject stage span, per-frame
// progress and the per-scheme residual flip counters. See StoreOpts for
// seeding and worker selection.
func (s *System) StoreContext(ctx context.Context, v *codec.Video, parts []core.FramePartition, o StoreOpts) (*codec.Video, int, error) {
	if len(parts) != len(v.Frames) {
		return nil, 0, fmt.Errorf("store: %w: %d partitions for %d frames", ErrPartitionMismatch, len(parts), len(v.Frames))
	}
	ob := obs.From(ctx)
	defer obs.StartSpan(ob, obs.StageInject).End()
	out := v.ClonePooled()
	if o.Rng != nil {
		// Legacy serial stream: draws must happen in frame order from the
		// one shared source.
		flips := 0
		for f, ef := range out.Frames {
			if err := ctx.Err(); err != nil {
				return nil, 0, err
			}
			n := s.injectFrame(o.Rng, ef, parts[f], ob)
			shareIfIntact(ef, v.Frames[f], n)
			flips += n
			ob.FrameDone(obs.StageInject, 1)
		}
		return out, flips, nil
	}
	flips := make([]int, len(out.Frames))
	err := par.ForEachLabeled(ctx, len(out.Frames), o.Workers, obs.StageInject, "", func(f int) error {
		rng := rngPool.Get().(*rand.Rand)
		rng.Seed(frameSeed(o.Seed, o.FrameOffset+f))
		flips[f] = s.injectFrame(rng, out.Frames[f], parts[f], ob)
		shareIfIntact(out.Frames[f], v.Frames[f], flips[f])
		rngPool.Put(rng)
		ob.FrameDone(obs.StageInject, 1)
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	total := 0
	for _, n := range flips {
		total += n
	}
	return out, total, nil
}

// shareIfIntact lets a stored frame that came back without a single flip —
// nearly all of them under any assignment worth studying — share the parsed
// syntax of the frame it was cloned from, so a Monte-Carlo loop entropy-decodes
// an undamaged payload once, not once per trip. This is the only place that
// may make the claim: here the bytes are known equal, and the decoder still
// checks a CRC before it believes it.
func shareIfIntact(stored, src *codec.EncodedFrame, flips int) {
	if flips == 0 {
		stored.ShareSyntax(src.SyntaxSlot())
	}
}

// rngPool recycles per-frame RNGs across injection rounds. Seed fully resets
// a *rand.Rand to the state rand.New(rand.NewSource(seed)) would have, so a
// pooled source draws exactly the stream a fresh one would.
var rngPool = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// injectFrame flips each segment's payload bits at its scheme's residual
// rate, publishes per-scheme residual counters to ob, and returns the number
// of flips. The whole path — segment iteration, error placement, bit
// flipping — runs without allocating.
func (s *System) injectFrame(rng *rand.Rand, ef *codec.EncodedFrame, part core.FramePartition, ob obs.Observer) int {
	flips := 0
	part.VisitSegments(ef.PayloadBits(), func(seg core.Segment) {
		rate := s.residualRate(seg.Scheme)
		if rate <= 0 {
			return
		}
		n := 0
		sim.VisitErrorPositions(rng, seg.Bits, rate, func(pos int64) {
			bitio.FlipBit(ef.Payload, seg.Start+pos)
			n++
		})
		if n != 0 {
			ob.Counter(obs.CtrResidualFlips, seg.Scheme.Name, int64(n))
		}
		flips += n
	})
	return flips
}

// frameSeed derives the sub-stream seed of frame f from the caller's seed
// with a SplitMix64-style finalizer, decorrelating neighbouring frames while
// staying a pure function of (seed, f) — the property that makes StoreContext
// reproducible at every worker count.
func frameSeed(seed int64, f int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(f+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
