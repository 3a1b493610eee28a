package entropy

import (
	"bytes"
	"encoding/binary"
	"math"
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

// codeBlocks codes blocks into slices codewords of one stream through be,
// both by the block routine (got) and by the per-symbol sequence it unrolls
// (same), and the first codeword also through the per-symbol oracle (ref:
// got and same carry their contexts on past a flush, the oracle does not).
// The syntax a macroblock puts between its residual blocks goes before
// every every-th block, so the blocks meet the coder in every phase and the
// other classes' contexts keep moving. After every block all writers must
// be at the same position, and got and same must hold the same bytes and,
// for CABAC, the same coder state; the first codeword must flush to the
// oracle's bytes. It returns the stream.
func codeBlocks(t *testing.T, be backend, blocks [][16]int32, every, slices int) []byte {
	t.Helper()
	gw, sw, rw := bitio.NewWriter(), bitio.NewWriter(), bitio.NewWriter()
	got, same := be.writer(gw), be.writer(sw)
	writers := []symbolWriter{got, same, be.refWriter(rw)}
	for slice := 0; slice < slices; slice++ {
		check := func(what string, i int) {
			t.Helper()
			for _, w := range writers[1:] {
				if w.BitPos() != got.BitPos() {
					t.Fatalf("%s: slice %d, after %s %d: BitPos %d, per-symbol %d", be.name, slice, what, i, got.BitPos(), w.BitPos())
				}
			}
			if !bytes.Equal(gw.Bytes(), sw.Bytes()) || gw.BitPos() != sw.BitPos() {
				t.Fatalf("%s: slice %d, after %s %d: bytes %x (%d bits), per-symbol %x (%d bits)",
					be.name, slice, what, i, gw.Bytes(), gw.BitPos(), sw.Bytes(), sw.BitPos())
			}
			if g, ok := got.(*CABACWriter); ok {
				s := same.(*CABACWriter)
				ge, se := g.enc, s.enc
				ge.w, se.w = nil, nil
				if ge != se || g.ctxs != s.ctxs {
					t.Fatalf("%s: slice %d, after %s %d: coder state %+v, per-symbol %+v", be.name, slice, what, i, ge, se)
				}
			}
		}
		for i := range blocks {
			if every > 0 && i%every == 0 {
				for _, w := range writers {
					w.PutFlag(ClassCBP, i%3 == 0)
					w.PutSVal(ClassMVX, int32(i%41-20))
					w.PutUVal(ClassMBType, uint32(i%7))
				}
			}
			got.WriteResidualBlock(&blocks[i], countNonzero(&blocks[i]))
			for _, w := range writers[1:] {
				refWriteResidualBlock(w, &blocks[i])
			}
			check("block", i)
		}
		for _, w := range writers {
			w.Flush()
		}
		check("flush", len(blocks))
		if len(writers) == 3 && !bytes.Equal(gw.Bytes(), rw.Bytes()) {
			t.Fatalf("%s: %d blocks flushed to %x, oracle %x", be.name, len(blocks), gw.Bytes(), rw.Bytes())
		}
		writers = writers[:2]
	}
	return bytes.Clone(gw.Bytes())
}

// readBlocks decodes nBlocks from payload through the block routine and the
// per-symbol oracle, with the symbols codeBlocks puts before every every-th
// block (none when every is 0), and requires the same symbols, block, coded
// flag, desync flag and position after every call. The payload may be
// anything: the comparison, not the content, is the test.
func readBlocks(t *testing.T, be backend, payload []byte, nBlocks, every int) {
	t.Helper()
	got, want := be.reader(payload), be.refReader(bitio.NewReader(payload))
	for i := 0; i < nBlocks; i++ {
		if every > 0 && i%every == 0 {
			gf, wf := got.GetFlag(ClassCBP), want.GetFlag(ClassCBP)
			gs, ws := got.GetSVal(ClassMVX), want.GetSVal(ClassMVX)
			gu, wu := got.GetUVal(ClassMBType), want.GetUVal(ClassMBType)
			if gf != wf || gs != ws || gu != wu {
				t.Fatalf("%s: symbols before block %d: (%v %d %d), oracle (%v %d %d)", be.name, i, gf, gs, gu, wf, ws, wu)
			}
		}
		var gb, wb [16]int32
		gc := got.ReadResidualBlock(&gb)
		wc := refReadResidualBlock(want, &wb)
		if gb != wb || gc != wc || got.Desynced() != want.Desynced() || got.BitPos() != want.BitPos() {
			t.Fatalf("%s: block %d: %v coded=%v desync=%v at %d, oracle %v coded=%v desync=%v at %d",
				be.name, i, gb, gc, got.Desynced(), got.BitPos(), wb, wc, want.Desynced(), want.BitPos())
		}
	}
}

// TestResidualBlockMatchesPerSymbol is the block routines' differential
// test, for both coders: writing, and reading of clean, bit-flipped,
// truncated and random payloads. Damaged payloads are what exercises the
// decoder's clamps — nnz > 16, a run that carries the scan to 16 or beyond,
// levels past ±maxLevel, the escape's suffix cap, reads past the end.
func TestResidualBlockMatchesPerSymbol(t *testing.T) {
	for bi, be := range backends {
		rng := rand.New(rand.NewSource(int64(21 + bi)))
		for trial := 0; trial < 40; trial++ {
			blocks := make([][16]int32, 1+rng.Intn(120))
			for i := range blocks {
				blocks[i] = randomBlock(rng)
			}
			clean := codeBlocks(t, be, blocks, 5, 1)
			readBlocks(t, be, clean, len(blocks)+8, 5) // reads on past the last block
			for flips := 0; flips < 12; flips++ {
				damaged := bytes.Clone(clean)
				for n := 1 + rng.Intn(4); n > 0; n-- {
					bitio.FlipBit(damaged, rng.Int63n(int64(len(damaged))*8))
				}
				readBlocks(t, be, damaged, len(blocks)+8, 5)
			}
			readBlocks(t, be, clean[:rng.Intn(len(clean)+1)], len(blocks), 5)
			noise := make([]byte, 1+rng.Intn(200))
			rng.Read(noise)
			readBlocks(t, be, noise, 60, 5)
		}
		for _, fill := range []byte{0x00, 0xFF, 0x55} {
			readBlocks(t, be, bytes.Repeat([]byte{fill}, 64), 80, 5)
		}
		readBlocks(t, be, nil, 5, 5)
	}
}

// TestResidualBlockClampCases pins, with constructed streams, the three
// bounded fields one by one so that the differential above cannot pass by
// never reaching them.
func TestResidualBlockClampCases(t *testing.T) {
	for _, be := range backends {
		// read builds a stream with write and reads its first block, after
		// holding the stream's first three blocks to the oracle.
		read := func(write func(sw SymbolWriter)) (blk [16]int32, coded bool) {
			w := bitio.NewWriter()
			sw := be.writer(w)
			write(sw)
			sw.Flush()
			readBlocks(t, be, w.Bytes(), 3, 0)
			coded = be.reader(w.Bytes()).ReadResidualBlock(&blk)
			return blk, coded
		}
		// nnz > 16: sixteen coefficients are read, not forty.
		if blk, coded := read(func(sw SymbolWriter) {
			sw.PutUVal(ClassCoeffFlag, 40)
			for i := 0; i < 40; i++ {
				sw.PutUVal(ClassCoeffRun, 0)
				sw.PutSVal(ClassCoeffLevel, int32(i+1))
			}
		}); !coded || blk[zigzag4[15]] != 16 {
			t.Fatalf("%s: nnz 40: coded=%v block %v", be.name, coded, blk)
		}
		// A run that carries the scan to 16, or past it by any uint32 (one
		// that is negative as a 32-bit int among them): the block ends
		// without a level.
		for _, run := range []uint32{12, 1 << 31} {
			if blk, _ := read(func(sw SymbolWriter) {
				sw.PutUVal(ClassCoeffFlag, 2)
				sw.PutUVal(ClassCoeffRun, 3)
				sw.PutSVal(ClassCoeffLevel, 7)
				sw.PutUVal(ClassCoeffRun, run)
				sw.PutSVal(ClassCoeffLevel, 9) // never read as part of this block
			}); blk[zigzag4[3]] != 7 || countNonzero(&blk) != 1 {
				t.Fatalf("%s: scan overflow by %d: block %v", be.name, run, blk)
			}
		}
		// Levels beyond ±maxLevel are clamped.
		if blk, _ := read(func(sw SymbolWriter) {
			sw.PutUVal(ClassCoeffFlag, 2)
			sw.PutUVal(ClassCoeffRun, 0)
			sw.PutSVal(ClassCoeffLevel, 1<<20)
			sw.PutUVal(ClassCoeffRun, 0)
			sw.PutSVal(ClassCoeffLevel, -(1 << 20))
		}); blk[0] != maxLevel || blk[1] != -maxLevel {
			t.Fatalf("%s: clamp: block %v", be.name, blk)
		}
	}
}

// FuzzResidualBlockMatchesPerSymbol reads arbitrary bytes as residual
// blocks with both coders.
func FuzzResidualBlockMatchesPerSymbol(f *testing.F) {
	rng := rand.New(rand.NewSource(31))
	for _, be := range backends {
		blocks := make([][16]int32, 30)
		for i := range blocks {
			blocks[i] = randomBlock(rng)
		}
		w := bitio.NewWriter()
		sw := be.writer(w)
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
		for _, be := range backends {
			readBlocks(t, be, payload, 40, 5)
			readBlocks(t, be, payload, 40, 0)
		}
	})
}

// edgeBlocks are the blocks whose syntax takes every branch of the writers:
// the all-zero block; a lone level at each scan position, so runs reach 15
// and cross prefixCap; counts at and past prefixCap; levels just below, at
// and past the prefix cap, at ±maxLevel and at the ends of int32.
func edgeBlocks() [][16]int32 {
	var out [][16]int32
	out = append(out, [16]int32{})
	for pos := range zigzag4 {
		var b [16]int32
		b[zigzag4[pos]] = int32(1 + pos%3)
		if pos%2 == 1 {
			b[zigzag4[pos]] = -b[zigzag4[pos]]
		}
		out = append(out, b)
	}
	for _, n := range []int{prefixCap - 1, prefixCap, prefixCap + 1, 16} {
		var b [16]int32
		for i := 0; i < n; i++ {
			b[zigzag4[15-i]] = int32(i%5 - 2)
			if b[zigzag4[15-i]] == 0 {
				b[zigzag4[15-i]] = 3
			}
		}
		out = append(out, b)
	}
	for _, v := range []int32{prefixCap - 1, prefixCap, prefixCap + 1, 2*prefixCap + 7,
		maxLevel - 1, maxLevel, maxLevel + 1, 1 << 24, math.MaxInt32, math.MinInt32} {
		for _, s := range []int32{1, -1} {
			var b [16]int32
			b[0] = v * s
			b[zigzag4[13]] = -v * s / 2
			out = append(out, b, [16]int32{15: v * s})
		}
	}
	return out
}

// TestResidualBlockWriterMatchesPerSymbol runs the edge blocks, then random
// ones, through the three writers of each backend, in two codewords of one
// stream.
func TestResidualBlockWriterMatchesPerSymbol(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	blocks := edgeBlocks()
	for i := 0; i < 2000; i++ {
		blocks = append(blocks, randomBlock(rng))
	}
	for _, be := range backends {
		codeBlocks(t, be, blocks, 4, 2)
	}
}

// fuzzBlocks decodes data into blocks: per coefficient one byte, whose top
// bits choose a zero (half of them), a small level, or a 24-bit level read
// from the next three bytes — counts, runs and escapes of every size.
func fuzzBlocks(data []byte) [][16]int32 {
	var out [][16]int32
	for len(data) > 0 {
		var b [16]int32
		for i := 0; i < 16 && len(data) > 0; i++ {
			c := data[0]
			data = data[1:]
			switch c >> 6 {
			case 2:
				b[i] = int32(int8(c<<2)) >> 2
			case 3:
				var w [4]byte
				copy(w[1:], data)
				data = data[min(3, len(data)):]
				b[i] = int32(binary.BigEndian.Uint32(w[:])<<8) >> (8 - c&7)
			}
		}
		out = append(out, b)
	}
	return out
}

// FuzzResidualBlockWriterMatchesPerSymbol: arbitrary blocks, coded between
// macroblock symbols, leave the three writers of each backend with the same
// bytes, position and state.
func FuzzResidualBlockWriterMatchesPerSymbol(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0x7F, 0xFF, 0xFF})
	f.Add(bytes.Repeat([]byte{0x80}, 16))
	f.Add(bytes.Repeat([]byte{0xC7, 0x80, 0x00, 0x00}, 16))
	f.Add(append(bytes.Repeat([]byte{0}, 15), 0xBF))
	var seed []byte
	for _, b := range edgeBlocks() {
		for _, v := range b {
			if v == 0 {
				seed = append(seed, 0)
				continue
			}
			var w [4]byte
			binary.BigEndian.PutUint32(w[:], uint32(v))
			seed = append(seed, 0xC0, w[1], w[2], w[3])
		}
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, be := range backends {
			codeBlocks(t, be, fuzzBlocks(data), 3, 1)
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
	for _, c := range backends {
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
