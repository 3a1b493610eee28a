package entropy

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"videoapp/internal/bitio"
)

// The block writers' differential: WriteResidualBlock against the
// per-symbol sequence it unrolls — PutUVal for the count, then PutUVal and
// PutSVal per (run, level) pair (refWriteResidualBlock) — through the same
// backend. Bytes, BitPos() and, for CABAC, the whole coder state must agree
// after every block.

// writerPair is one backend twice over: got codes blocks with
// WriteResidualBlock, want with the per-symbol sequence.
type writerPair struct {
	name      string
	gw, ww    *bitio.Writer
	got, want SymbolWriter
}

func newWriterPairs() []*writerPair {
	var out []*writerPair
	for _, c := range []struct {
		name string
		mk   func(*bitio.Writer) SymbolWriter
	}{
		{"cabac", func(w *bitio.Writer) SymbolWriter { return NewCABACWriter(w) }},
		{"cavlc", func(w *bitio.Writer) SymbolWriter { return NewCAVLCWriter(w) }},
	} {
		gw, ww := bitio.NewWriter(), bitio.NewWriter()
		out = append(out, &writerPair{name: c.name, gw: gw, ww: ww, got: c.mk(gw), want: c.mk(ww)})
	}
	return out
}

// block codes blk on both sides and compares them.
func (p *writerPair) block(t *testing.T, i int, blk *[16]int32) {
	t.Helper()
	p.got.WriteResidualBlock(blk, countNonzero(blk))
	refWriteResidualBlock(p.want, blk)
	p.compare(t, "block", i, blk)
}

// symbols codes the syntax a macroblock puts between its residual blocks,
// the same on both sides, so the blocks meet the coder in every phase and
// the other classes' contexts keep moving.
func (p *writerPair) symbols(i int) {
	for _, sw := range []SymbolWriter{p.got, p.want} {
		sw.PutFlag(ClassCBP, i%3 == 0)
		sw.PutSVal(ClassMVX, int32(i%41-20))
		sw.PutUVal(ClassMBType, uint32(i%7))
	}
}

func (p *writerPair) compare(t *testing.T, what string, i int, blk *[16]int32) {
	t.Helper()
	if g, w := p.got.BitPos(), p.want.BitPos(); g != w {
		t.Fatalf("%s: after %s %d %v: BitPos %d, per-symbol %d", p.name, what, i, *blk, g, w)
	}
	if !bytes.Equal(p.gw.Bytes(), p.ww.Bytes()) || p.gw.BitPos() != p.ww.BitPos() {
		t.Fatalf("%s: after %s %d %v: bytes %x (%d bits), per-symbol %x (%d bits)",
			p.name, what, i, *blk, p.gw.Bytes(), p.gw.BitPos(), p.ww.Bytes(), p.ww.BitPos())
	}
	if g, ok := p.got.(*CABACWriter); ok {
		w := p.want.(*CABACWriter)
		ge, we := g.enc, w.enc
		ge.w, we.w = nil, nil
		if ge != we || g.ctxs != w.ctxs {
			t.Fatalf("%s: after %s %d %v: coder state %+v, per-symbol %+v", p.name, what, i, *blk, ge, we)
		}
	}
}

// finish flushes both sides and compares the payloads.
func (p *writerPair) finish(t *testing.T) {
	t.Helper()
	p.got.Flush()
	p.want.Flush()
	var zero [16]int32
	p.compare(t, "flush", -1, &zero)
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
// ones, through both writers of each backend, in two slices of one stream.
func TestResidualBlockWriterMatchesPerSymbol(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	blocks := edgeBlocks()
	for i := 0; i < 2000; i++ {
		blocks = append(blocks, randomBlock(rng))
	}
	for _, p := range newWriterPairs() {
		for slice := 0; slice < 2; slice++ {
			for i := range blocks {
				if i%4 == 0 {
					p.symbols(i)
				}
				p.block(t, i, &blocks[i])
			}
			p.finish(t)
		}
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
// macroblock symbols, leave both writers of each backend with the same
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
		blocks := fuzzBlocks(data)
		for _, p := range newWriterPairs() {
			for i := range blocks {
				if i%3 == 0 {
					p.symbols(i)
				}
				p.block(t, i, &blocks[i])
			}
			p.finish(t)
		}
	})
}
