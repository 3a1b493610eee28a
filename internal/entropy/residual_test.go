package entropy

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"videoapp/internal/bitio"
)

// randomBlock draws a quantized 4×4 block: mostly empty or sparse with small
// levels, as residuals are, now and then dense or with levels large enough
// to take the exp-Golomb escape and the decoder's clamp.
func randomBlock(rng *rand.Rand) [16]int32 {
	var blk [16]int32
	switch rng.Intn(10) {
	case 0, 1, 2, 3: // all zero
	case 4, 5, 6: // sparse, small
		for n := 1 + rng.Intn(3); n > 0; n-- {
			blk[rng.Intn(16)] = int32(rng.Intn(7) - 3)
		}
	case 7: // one coefficient after a long run
		blk[zigzag4[12+rng.Intn(4)]] = int32(1 + rng.Intn(3))
	case 8: // dense
		for i := range blk {
			blk[i] = int32(rng.Intn(41) - 20)
		}
	default: // escapes and out-of-range levels
		for n := 1 + rng.Intn(4); n > 0; n-- {
			v := int32(rng.Intn(1 << uint(4+rng.Intn(20))))
			if rng.Intn(2) == 0 {
				v = -v
			}
			blk[rng.Intn(16)] = v
		}
	}
	return blk
}

// countNonzero returns the number of nonzero coefficients of blk, the count
// WriteResidualBlock is given.
func countNonzero(blk *[16]int32) int {
	n := 0
	for _, v := range blk {
		if v != 0 {
			n++
		}
	}
	return n
}

// symbolWriter is what the per-symbol oracle writes through.
type symbolWriter interface {
	PutUVal(c SyntaxClass, v uint32)
	PutSVal(c SyntaxClass, v int32)
	PutFlag(c SyntaxClass, b bool)
	BitPos() int64
	Flush()
}

// symbolReader is what the per-symbol oracle reads through.
type symbolReader interface {
	GetUVal(c SyntaxClass) uint32
	GetSVal(c SyntaxClass) int32
	GetFlag(c SyntaxClass) bool
	Desynced() bool
	BitPos() int64
}

// residualCoders pairs each production backend with its per-symbol oracle:
// for CABAC the verbatim pre-rewrite reader and writer over the bit-serial
// coder, for CAVLC the backend's own per-symbol methods (their exp-Golomb
// primitives are pinned in internal/bitio).
var residualCoders = []struct {
	name      string
	writer    func(w *bitio.Writer) SymbolWriter
	refWriter func(w *bitio.Writer) symbolWriter
	reader    func(buf []byte) SymbolReader
	refReader func(buf []byte) symbolReader
}{
	{
		"cabac",
		func(w *bitio.Writer) SymbolWriter { return NewCABACWriter(w) },
		func(w *bitio.Writer) symbolWriter { return newRefCABACWriter(w) },
		func(buf []byte) SymbolReader { r := new(CABACReader); r.Reset(buf); return r },
		func(buf []byte) symbolReader { return newRefCABACReader(bitio.NewReader(buf)) },
	},
	{
		"cavlc",
		func(w *bitio.Writer) SymbolWriter { return NewCAVLCWriter(w) },
		func(w *bitio.Writer) symbolWriter { return NewCAVLCWriter(w) },
		func(buf []byte) SymbolReader { r := new(CAVLCReader); r.Reset(buf); return r },
		func(buf []byte) symbolReader { return NewCAVLCReader(bitio.NewReader(buf)) },
	},
}

// writeMixed codes blocks the way a macroblock does — a coded-block flag, a
// delta-QP and a motion vector between groups of blocks — through the block
// routine on one side and the per-symbol oracle on the other, and requires
// equal positions after every block and equal bytes at the end.
func writeMixed(t *testing.T, ci int, blocks [][16]int32) []byte {
	t.Helper()
	c := residualCoders[ci]
	gw, ww := bitio.NewWriter(), bitio.NewWriter()
	got, want := c.writer(gw), c.refWriter(ww)
	for i := range blocks {
		if i%5 == 0 {
			got.PutFlag(ClassCBP, i%10 == 0)
			want.PutFlag(ClassCBP, i%10 == 0)
			got.PutSVal(ClassMVX, int32(i%37-18))
			want.PutSVal(ClassMVX, int32(i%37-18))
			got.PutUVal(ClassMBType, uint32(i%9))
			want.PutUVal(ClassMBType, uint32(i%9))
		}
		got.WriteResidualBlock(&blocks[i], countNonzero(&blocks[i]))
		refWriteResidualBlock(want, &blocks[i])
		if got.BitPos() != want.BitPos() {
			t.Fatalf("%s: BitPos %d after block %d %v, per-symbol writer at %d", c.name, got.BitPos(), i, blocks[i], want.BitPos())
		}
	}
	got.Flush()
	want.Flush()
	if !bytes.Equal(gw.Bytes(), ww.Bytes()) {
		t.Fatalf("%s: block writer and per-symbol writer disagree on %d blocks", c.name, len(blocks))
	}
	return gw.Bytes()
}

// readMixed decodes nBlocks from payload in the same mixed pattern through
// the block routine and the per-symbol oracle and requires the same block,
// coded flag, desync flag and position after every call. The payload may be
// anything: the comparison, not the content, is the test.
func readMixed(t *testing.T, ci int, payload []byte, nBlocks int) {
	t.Helper()
	readBlocks(t, ci, payload, nBlocks, true)
}

// readBlocks is readMixed, with the interleaved symbols optional.
func readBlocks(t *testing.T, ci int, payload []byte, nBlocks int, mixed bool) {
	t.Helper()
	c := residualCoders[ci]
	got, want := c.reader(payload), c.refReader(payload)
	for i := 0; i < nBlocks; i++ {
		if mixed && i%5 == 0 {
			gf, wf := got.GetFlag(ClassCBP), want.GetFlag(ClassCBP)
			gs, ws := got.GetSVal(ClassMVX), want.GetSVal(ClassMVX)
			gu, wu := got.GetUVal(ClassMBType), want.GetUVal(ClassMBType)
			if gf != wf || gs != ws || gu != wu {
				t.Fatalf("%s: symbols before block %d: (%v %d %d), oracle (%v %d %d)", c.name, i, gf, gs, gu, wf, ws, wu)
			}
		}
		var gb, wb [16]int32
		gc := got.ReadResidualBlock(&gb)
		wc := refReadResidualBlock(want, &wb)
		if gb != wb || gc != wc || got.Desynced() != want.Desynced() || got.BitPos() != want.BitPos() {
			t.Fatalf("%s: block %d: %v coded=%v desync=%v at %d, oracle %v coded=%v desync=%v at %d",
				c.name, i, gb, gc, got.Desynced(), got.BitPos(), wb, wc, want.Desynced(), want.BitPos())
		}
	}
}

// TestResidualBlockMatchesPerSymbol is the block routines' differential
// test, for both coders: writing, and reading of clean, bit-flipped,
// truncated and random payloads. Damaged payloads are what exercises the
// decoder's clamps — nnz > 16, a run that carries the scan to 16 or beyond,
// levels past ±maxLevel, the escape's suffix cap, reads past the end.
func TestResidualBlockMatchesPerSymbol(t *testing.T) {
	for ci := range residualCoders {
		rng := rand.New(rand.NewSource(int64(21 + ci)))
		for trial := 0; trial < 40; trial++ {
			blocks := make([][16]int32, 1+rng.Intn(120))
			for i := range blocks {
				blocks[i] = randomBlock(rng)
			}
			clean := writeMixed(t, ci, blocks)
			readMixed(t, ci, clean, len(blocks)+8) // reads on past the last block
			for flips := 0; flips < 12; flips++ {
				damaged := bytes.Clone(clean)
				for n := 1 + rng.Intn(4); n > 0; n-- {
					bitio.FlipBit(damaged, rng.Int63n(int64(len(damaged))*8))
				}
				readMixed(t, ci, damaged, len(blocks)+8)
			}
			readMixed(t, ci, clean[:rng.Intn(len(clean)+1)], len(blocks))
			noise := make([]byte, 1+rng.Intn(200))
			rng.Read(noise)
			readMixed(t, ci, noise, 60)
		}
		for _, fill := range []byte{0x00, 0xFF, 0x55} {
			readMixed(t, ci, bytes.Repeat([]byte{fill}, 64), 80)
		}
		readMixed(t, ci, nil, 5)
	}
}

// TestResidualBlockClampCases pins, with constructed streams, the three
// bounded fields one by one so that the differential above cannot pass by
// never reaching them.
func TestResidualBlockClampCases(t *testing.T) {
	for ci, c := range residualCoders {
		build := func(write func(sw SymbolWriter)) []byte {
			w := bitio.NewWriter()
			sw := c.writer(w)
			write(sw)
			sw.Flush()
			return w.Bytes()
		}
		var blk [16]int32
		// nnz > 16: sixteen coefficients are read, not forty.
		p := build(func(sw SymbolWriter) {
			sw.PutUVal(ClassCoeffFlag, 40)
			for i := 0; i < 40; i++ {
				sw.PutUVal(ClassCoeffRun, 0)
				sw.PutSVal(ClassCoeffLevel, int32(i+1))
			}
		})
		if coded := c.reader(p).ReadResidualBlock(&blk); !coded || blk[zigzag4[15]] != 16 {
			t.Fatalf("%s: nnz 40: coded=%v block %v", c.name, coded, blk)
		}
		readBlocks(t, ci, p, 3, false)
		// A run that carries the scan to 16, or past it by any uint32 (one
		// that is negative as a 32-bit int among them): the block ends
		// without a level.
		for _, run := range []uint32{12, 1 << 31} {
			p = build(func(sw SymbolWriter) {
				sw.PutUVal(ClassCoeffFlag, 2)
				sw.PutUVal(ClassCoeffRun, 3)
				sw.PutSVal(ClassCoeffLevel, 7)
				sw.PutUVal(ClassCoeffRun, run)
				sw.PutSVal(ClassCoeffLevel, 9) // never read as part of this block
			})
			if c.reader(p).ReadResidualBlock(&blk); blk[zigzag4[3]] != 7 || countNonzero(&blk) != 1 {
				t.Fatalf("%s: scan overflow by %d: block %v", c.name, run, blk)
			}
			readBlocks(t, ci, p, 3, false)
		}
		// Levels beyond ±maxLevel are clamped.
		p = build(func(sw SymbolWriter) {
			sw.PutUVal(ClassCoeffFlag, 2)
			sw.PutUVal(ClassCoeffRun, 0)
			sw.PutSVal(ClassCoeffLevel, 1<<20)
			sw.PutUVal(ClassCoeffRun, 0)
			sw.PutSVal(ClassCoeffLevel, -(1 << 20))
		})
		if c.reader(p).ReadResidualBlock(&blk); blk[0] != maxLevel || blk[1] != -maxLevel {
			t.Fatalf("%s: clamp: block %v", c.name, blk)
		}
		readBlocks(t, ci, p, 3, false)
	}
}

// FuzzResidualBlockMatchesPerSymbol reads arbitrary bytes as residual
// blocks with both coders.
func FuzzResidualBlockMatchesPerSymbol(f *testing.F) {
	rng := rand.New(rand.NewSource(31))
	for ci := range residualCoders {
		blocks := make([][16]int32, 30)
		for i := range blocks {
			blocks[i] = randomBlock(rng)
		}
		w := bitio.NewWriter()
		sw := residualCoders[ci].writer(w)
		for i := range blocks {
			sw.WriteResidualBlock(&blocks[i], countNonzero(&blocks[i]))
		}
		sw.Flush()
		f.Add(w.Bytes())
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 40))
	f.Add(bytes.Repeat([]byte{0x00}, 40))
	f.Fuzz(func(t *testing.T, payload []byte) {
		for ci := range residualCoders {
			readMixed(t, ci, payload, 40)
			readBlocks(t, ci, payload, 40, false)
		}
	})
}

// BenchmarkResidualBlock measures the block routines on a macroblock-like
// mix of blocks: coding them into a payload (enc: a fresh coder, the
// blocks, the flush), the block writer alone (write: only the
// WriteResidualBlock calls are timed, as the encoder makes them), and
// reading the payload back (dec).
func BenchmarkResidualBlock(b *testing.B) {
	rng := rand.New(rand.NewSource(41))
	blocks := make([][16]int32, 24*64)
	counts := make([]int, len(blocks))
	for i := range blocks {
		blocks[i] = randomBlock(rng)
		for j, v := range blocks[i] {
			blocks[i][j] = max(-300, min(300, v))
		}
		counts[i] = countNonzero(&blocks[i])
	}
	for _, c := range residualCoders {
		w := bitio.NewWriter()
		writeBlocks := func(sw SymbolWriter) {
			for j := range blocks {
				sw.WriteResidualBlock(&blocks[j], counts[j])
			}
		}
		encode := func() {
			w.Reset()
			sw := c.writer(w)
			writeBlocks(sw)
			sw.Flush()
		}
		b.Run(c.name+"/enc", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				encode()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(blocks)), "ns/block")
		})
		b.Run(c.name+"/write", func(b *testing.B) {
			var timed time.Duration
			for i := 0; i < b.N; i++ {
				w.Reset()
				sw := c.writer(w)
				t0 := time.Now()
				writeBlocks(sw)
				timed += time.Since(t0)
				sw.Flush()
			}
			b.ReportMetric(float64(timed.Nanoseconds())/float64(b.N*len(blocks)), "ns/block")
		})
		encode()
		payload := bytes.Clone(w.Bytes())
		b.Run(c.name+"/dec", func(b *testing.B) {
			var blk [16]int32
			for i := 0; i < b.N; i++ {
				sr := c.reader(payload)
				for range blocks {
					sr.ReadResidualBlock(&blk)
				}
				if sr.Desynced() {
					b.Fatal("clean payload desynced")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(blocks)), "ns/block")
		})
	}
}
