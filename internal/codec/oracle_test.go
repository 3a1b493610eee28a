package codec

import (
	"bytes"
	"math/rand"
	"testing"

	"videoapp/internal/bitio"
	"videoapp/internal/entropy"
	"videoapp/internal/transform"
)

// The per-symbol residual helpers as they stood in common.go before residual
// coding moved into the entropy backends as block routines, kept verbatim
// (suffixed Ref) as the oracle of TestResidualHelpersMatchPerSymbolOracle: one
// interface call per symbol, over whichever backend is configured.

// zigzag4 is the 4×4 zig-zag scan order.
var zigzag4 = [16]int{0, 1, 4, 8, 5, 2, 3, 6, 9, 12, 13, 10, 7, 11, 14, 15}

// maxLevel bounds decoded coefficient magnitudes; corrupt streams otherwise
// produce values whose inverse transform overflows int32.
const maxLevel = 1 << 15

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

// writeResidualBlockRef codes one quantized 4×4 block as a nonzero count
// followed by (zero-run, level) pairs in zig-zag order.
func writeResidualBlockRef(sw entropy.SymbolWriter, blk *transform.Block) {
	nnz := 0
	for _, v := range blk {
		if v != 0 {
			nnz++
		}
	}
	sw.PutUVal(entropy.ClassCoeffFlag, uint32(nnz))
	run := 0
	for _, pos := range zigzag4 {
		v := blk[pos]
		if v == 0 {
			run++
			continue
		}
		sw.PutUVal(entropy.ClassCoeffRun, uint32(run))
		sw.PutSVal(entropy.ClassCoeffLevel, v)
		run = 0
		nnz--
		if nnz == 0 {
			break
		}
	}
}

// readResidualBlockRef decodes one 4×4 block into blk, clamping every field
// so corrupt streams yield garbage-but-bounded coefficients. It reports
// whether any level was stored. It is the per-symbol oracle of
// readResidualBlock and the residual reader of the reference decoder
// (reference_test.go).
func readResidualBlockRef(sr entropy.SymbolReader, blk *transform.Block) (coded bool) {
	*blk = transform.Block{}
	nnz := int(sr.GetUVal(entropy.ClassCoeffFlag))
	if nnz > 16 {
		nnz = 16
	}
	scan := 0
	for i := 0; i < nnz; i++ {
		run := int(sr.GetUVal(entropy.ClassCoeffRun))
		scan += run
		if scan >= 16 {
			break
		}
		level := sr.GetSVal(entropy.ClassCoeffLevel)
		if level > maxLevel {
			level = maxLevel
		}
		if level < -maxLevel {
			level = -maxLevel
		}
		blk[zigzag4[scan]] = level
		coded = true
		scan++
		if scan >= 16 {
			break
		}
	}
	return coded
}

// TestResidualHelpersMatchPerSymbolOracle holds the two residual helpers —
// now one call into the backend's block routine each — to their per-symbol
// forms above, through the SymbolWriter/SymbolReader interfaces the codec
// uses, for both coders: same bytes written, and the same blocks, coded
// flags, desync state and positions read back from clean and bit-flipped
// payloads. (internal/entropy holds the backends to the pre-rewrite coder
// itself; this pins the seam the codec sees.)
func TestResidualHelpersMatchPerSymbolOracle(t *testing.T) {
	for _, kind := range []EntropyKind{CABAC, CAVLC} {
		rng := rand.New(rand.NewSource(int64(51 + kind)))
		blocks := make([]transform.Block, 400)
		for i := range blocks {
			switch rng.Intn(4) {
			case 0:
			case 1:
				blocks[i][rng.Intn(16)] = int32(rng.Intn(5) - 2)
			case 2:
				for n := rng.Intn(6); n > 0; n-- {
					blocks[i][rng.Intn(16)] = int32(rng.Intn(61) - 30)
				}
			default:
				for j := range blocks[i] {
					blocks[i][j] = int32(rng.Intn(1<<uint(1+rng.Intn(18)))) - 40
				}
			}
		}
		gw, ww := bitio.NewWriter(), bitio.NewWriter()
		got, want := newSymbolWriter(kind, gw), newSymbolWriter(kind, ww)
		for i := range blocks {
			writeResidualBlock(got, &blocks[i], nonzeroLevels(&blocks[i]))
			writeResidualBlockRef(want, &blocks[i])
			if got.BitPos() != want.BitPos() {
				t.Fatalf("%s: BitPos %d after block %d, per-symbol form at %d", kind, got.BitPos(), i, want.BitPos())
			}
		}
		got.Flush()
		want.Flush()
		if !bytes.Equal(gw.Bytes(), ww.Bytes()) {
			t.Fatalf("%s: block and per-symbol writers disagree", kind)
		}
		clean := gw.Bytes()
		for trial := 0; trial < 30; trial++ {
			payload := bytes.Clone(clean)
			for n := trial % 5; n > 0; n-- {
				bitio.FlipBit(payload, rng.Int63n(int64(len(payload))*8))
			}
			gr, wr := newSymbolReader(kind, bitio.NewReader(payload)), newSymbolReader(kind, bitio.NewReader(payload))
			for i := 0; i < len(blocks)+4; i++ {
				var gb, wb transform.Block
				gc, wc := readResidualBlock(gr, &gb), readResidualBlockRef(wr, &wb)
				if trial == 0 && i < len(blocks) {
					clamped := blocks[i]
					for j, v := range clamped {
						clamped[j] = max(-maxLevel, min(maxLevel, v))
					}
					if gb != clamped {
						t.Fatalf("%s: clean block %d decoded %v, wrote %v", kind, i, gb, blocks[i])
					}
				}
				if gb != wb || gc != wc || gr.Desynced() != wr.Desynced() || gr.BitPos() != wr.BitPos() {
					t.Fatalf("%s: trial %d block %d: %v/%v desync %v at %d, per-symbol %v/%v desync %v at %d",
						kind, trial, i, gb, gc, gr.Desynced(), gr.BitPos(), wb, wc, wr.Desynced(), wr.BitPos())
				}
			}
		}
	}
}
