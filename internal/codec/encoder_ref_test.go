package codec

import (
	"math/rand"
	"runtime"
	"testing"

	"videoapp/internal/frame"
	"videoapp/internal/transform"
)

// nonzeroLevels counts the nonzero levels of blk, the count
// writeResidualBlock is given.
func nonzeroLevels(blk *transform.Block) int {
	n := 0
	for _, v := range blk {
		if v != 0 {
			n++
		}
	}
	return n
}

// refQuantizeResidual is the encoder's residual path as it stood before
// transform.ForwardQuantize: per block a closure gathers source minus
// prediction into a Block, transform.Forward and transform.Quantize return
// the levels by value, and a whole-block comparison sets the nonzero bit.
// Moved here verbatim (the receiver's fields became parameters; the
// transform's QuantizeOnly, since deleted, inlined) as the oracle of
// frameEncoder.quantizeResidual; the prediction it reads is the 16×16 luma
// (stride 16) and 8×8 chroma blocks (stride 8) the encoder kept apart from
// the frame at the time.
func refQuantizeResidual(res *mbResidual, orig *frame.Frame, pred *refMBPred, mx, my, qp int, intra bool) {
	res.nz = 0
	quantize := func(b int, src []uint8, srcStride int, prd []uint8, predStride int) {
		var r transform.Block
		for y := 0; y < 4; y++ {
			s, p := src[y*srcStride:][:4], prd[y*predStride:][:4]
			for x := range s {
				r[y*4+x] = int32(s[x]) - int32(p[x])
			}
		}
		y := transform.Forward(&r)
		res.blocks[b] = transform.Quantize(&y, qp, intra)
		if res.blocks[b] != (transform.Block{}) {
			res.nz |= 1 << uint(b)
		}
	}
	w, cw := orig.W, orig.W/2
	luma := orig.Y[my*frame.MBSize*w+mx*frame.MBSize:]
	for b := 0; b < lumaBlocks; b++ {
		bx, by := b&3, b>>2
		quantize(b, luma[by*4*w+bx*4:], w, pred.y[by*64+bx*4:], 16)
	}
	co := my*8*cw + mx*8
	for b := 0; b < 4; b++ {
		bx, by := b&1, b>>1
		quantize(lumaBlocks+b, orig.Cb[co+by*4*cw+bx*4:], cw, pred.cb[by*32+bx*4:], 8)
		quantize(lumaBlocks+4+b, orig.Cr[co+by*4*cw+bx*4:], cw, pred.cr[by*32+bx*4:], 8)
	}
}

// refMBPred is the prediction of one macroblock as refQuantizeResidual reads
// it.
type refMBPred struct {
	y      [256]uint8
	cb, cr [64]uint8
}

// TestQuantizeResidualMatchesReference: levels, nonzero map and nonzero
// counts of every block equal the unfused path's, at every QP and both dead zones, for
// predictions from exact (all-zero residual) through close to unrelated, at
// corner, edge and interior macroblocks. The encoder reads the prediction
// where the macroblock goes in its reconstruction; the reference reads a copy
// of it kept apart.
func TestQuantizeResidualMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	orig := frame.MustNew(48, 48)
	rng.Read(orig.Y)
	rng.Read(orig.Cb)
	rng.Read(orig.Cr)
	fe := newFrameEncoder(DefaultParams(), 48, 48, nil)
	fe.orig, fe.rec = orig, frame.MustNew(48, 48)
	for _, amp := range []int{0, 2, 12, 255} {
		for _, mb := range [][2]int{{0, 0}, {1, 1}, {2, 0}, {2, 2}} {
			mx, my := mb[0], mb[1]
			// The prediction is the source plus noise of the given amplitude.
			var pred refMBPred
			noisy := func(dst []uint8, stride int, kept []uint8, keptStride int, src []uint8, n int) {
				for y := 0; y < n; y++ {
					for x := 0; x < n; x++ {
						v := frame.ClampU8(int(src[y*stride+x]) + rng.Intn(2*amp+1) - amp)
						dst[y*stride+x], kept[y*keptStride+x] = v, v
					}
				}
			}
			lo, co := my*16*48+mx*16, my*8*24+mx*8
			noisy(fe.rec.Y[lo:], 48, pred.y[:], 16, orig.Y[lo:], 16)
			noisy(fe.rec.Cb[co:], 24, pred.cb[:], 8, orig.Cb[co:], 8)
			noisy(fe.rec.Cr[co:], 24, pred.cr[:], 8, orig.Cr[co:], 8)
			for qp := 0; qp <= transform.MaxQP; qp++ {
				for _, intra := range []bool{false, true} {
					var want mbResidual
					refQuantizeResidual(&want, orig, &pred, mx, my, qp, intra)
					for b := range fe.res.blocks { // stale levels of an earlier macroblock
						fe.res.blocks[b] = transform.Block{9, -9, 9, -9}
					}
					fe.quantizeResidual(mx, my, qp, intra)
					if fe.res != want {
						t.Fatalf("amplitude %d mb (%d,%d) qp %d intra %v: residual differs from the reference (nz %024b, want %024b)",
							amp, mx, my, qp, intra, fe.res.nz, want.nz)
					}
					for b := range want.blocks {
						if n := nonzeroLevels(&want.blocks[b]); int(fe.nnz[b]) != n {
							t.Fatalf("amplitude %d mb (%d,%d) qp %d intra %v: block %d counted %d nonzero levels, has %d",
								amp, mx, my, qp, intra, b, fe.nnz[b], n)
						}
					}
				}
			}
		}
	}
}

// TestEncodeAllocationBudget pins the allocation-free macroblock loop of the
// encoder: encoding a 6-frame 320×176 chunk may allocate, beyond the
// reconstruction (a Frame and its three planes, none when the pool has
// them), at most fourteen objects per frame — the EncodedFrame, its records,
// dependencies and payload, slice tables and entropy coder — plus a fixed
// handful per call. Before the rebuild it was about 1 140 per frame, one
// footprint slice, histogram and Deps slice per partition. The same encode
// may allocate at most 16 KiB per frame; records holding a Deps slice into
// over-allocated slabs took about 34 KiB.
func TestEncodeAllocationBudget(t *testing.T) {
	for _, coder := range []EntropyKind{CABAC, CAVLC} {
		seq, p := chunkInput(coder)
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := encode(seq, p); err != nil {
				t.Fatal(err)
			}
		})
		n := float64(len(seq.Frames))
		t.Logf("%s: %.0f allocations per %d-frame encode", coder, allocs, len(seq.Frames))
		if budget := 16 + n*(4+14); allocs > budget {
			t.Fatalf("%s: %.0f allocations per encode, budget %.0f (16 per call + %d frames × (4 for the reconstruction + 14))",
				coder, allocs, budget, len(seq.Frames))
		}
		// Bytes: the least of a few encodes, the pool warm. The race
		// detector makes sync.Pool drop a quarter of what it is handed — a
		// reconstruction or the padded references each time — so the bound
		// holds only without it.
		if raceEnabled {
			continue
		}
		least := ^uint64(0)
		for i := 0; i < 4; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := encode(seq, p); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		perFrame := float64(least) / n
		t.Logf("%s: %.0f bytes per frame", coder, perFrame)
		if perFrame > 16<<10 {
			t.Fatalf("%s: %.0f bytes allocated per frame, budget 16 KiB (payload, records and dependencies)", coder, perFrame)
		}
	}
}
