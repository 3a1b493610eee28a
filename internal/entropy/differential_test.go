package entropy

import (
	"bytes"
	"math/rand"
	"testing"

	"videoapp/internal/bitio"
)

// decodeOps replays a script against the production decoder and the
// bit-serial oracle over the same bytes from the same start position and
// requires the same bin, Overruns() and BitPos() after every call. Each
// script byte selects a context (low four bits) or, with the top bit set, a
// bypass decision.
func decodeOps(t *testing.T, data []byte, start int64, script []byte) {
	t.Helper()
	gr, wr := bitio.NewReader(data), bitio.NewReader(data)
	gr.SeekBit(start)
	wr.SeekBit(start)
	got, want := NewDecoder(gr), newRefDecoder(wr)
	var gctx [16]Context
	var wctx [16]refContext
	check := func(i int, g, w int) {
		if g != w || got.Overruns() != want.Overruns() || got.BitPos() != want.BitPos() {
			t.Fatalf("start %d, op %d: bin %d/%d, overruns %d/%d, bitpos %d/%d (got/want)",
				start, i, g, w, got.Overruns(), want.Overruns(), got.BitPos(), want.BitPos())
		}
	}
	check(-1, 0, 0)
	for i, op := range script {
		if op&0x80 != 0 {
			check(i, got.DecodeBypass(), want.DecodeBypass())
		} else {
			check(i, got.DecodeBit(&gctx[op&15]), want.DecodeBit(&wctx[op&15]))
		}
	}
	for i := range gctx {
		if gctx[i].p != wctx[i].State<<1|wctx[i].MPS {
			t.Fatalf("context %d ends at %d, oracle at state %d mps %d", i, gctx[i].p, wctx[i].State, wctx[i].MPS)
		}
	}
}

// encodedSample codes a skewed bin sequence and returns the stream.
func encodedSample(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	w := bitio.NewWriter()
	enc := NewEncoder(w)
	var ctxs [16]Context
	for i := 0; i < n; i++ {
		if rng.Intn(6) == 0 {
			enc.EncodeBypass(rng.Intn(2))
		} else {
			bit := 0
			if rng.Intn(7) == 0 {
				bit = 1
			}
			enc.EncodeBit(&ctxs[rng.Intn(16)], bit)
		}
	}
	enc.Flush()
	return w.Bytes()
}

func randomScript(rng *rand.Rand, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = byte(rng.Intn(16))
		if rng.Intn(6) == 0 {
			s[i] |= 0x80
		}
	}
	return s
}

// TestArithDecoderMatchesReference runs the decoder differential over valid
// streams, random bytes, all-ones and all-zero buffers, truncations down to
// nothing, and every start position of the first and last bytes — aligned or
// not, up to the end of the stream (the oracle cannot start past it: its
// first read panics there; the production decoder reads zeros).
func TestArithDecoderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	valid := encodedSample(5, 3000)
	random := make([]byte, 300)
	rng.Read(random)
	inputs := [][]byte{
		valid, valid[:len(valid)/2], valid[:9], valid[:8], valid[:7], valid[:1], {},
		random, random[:17],
		bytes.Repeat([]byte{0xFF}, 40), bytes.Repeat([]byte{0x00}, 40),
	}
	for _, data := range inputs {
		script := randomScript(rng, 8*len(data)+300)
		decodeOps(t, data, 0, script)
		for start := int64(1); start < 40 && start <= int64(len(data))*8; start++ {
			decodeOps(t, data, start, script[:300])
		}
		// Right around the end of the stream.
		for d := int64(-70); d <= 0; d++ {
			if s := int64(len(data))*8 + d; s >= 0 {
				decodeOps(t, data, s, script[:200])
			}
		}
	}
}

// FuzzArithDecoderMatchesReference is the arbitrary-input form: any bytes,
// any start, any interleaving of context and bypass decisions.
func FuzzArithDecoderMatchesReference(f *testing.F) {
	valid := encodedSample(6, 400)
	f.Add(valid, uint16(0), []byte{0, 1, 2, 3, 0x80, 4, 5, 0x81, 0, 0, 0, 0, 1, 1, 1, 2})
	f.Add(valid[:5], uint16(3), bytes.Repeat([]byte{0, 0x80, 7}, 40))
	f.Add([]byte{}, uint16(0), []byte{0, 0x80, 1})
	f.Add(bytes.Repeat([]byte{0xFF}, 12), uint16(95), bytes.Repeat([]byte{3}, 120))
	f.Add(bytes.Repeat([]byte{0x00}, 12), uint16(13), bytes.Repeat([]byte{0x80, 3}, 80))
	f.Add([]byte{0xA5, 0x5A, 0xC3, 0x3C, 0x0F, 0xF0, 0x99, 0x66, 0x12, 0x48}, uint16(7), bytes.Repeat([]byte{1, 2, 0x80, 3, 4, 5}, 30))
	f.Fuzz(func(t *testing.T, data []byte, start uint16, script []byte) {
		decodeOps(t, data, int64(start)%(int64(len(data))*8+1), script)
	})
}

// encodeOps drives the production encoder and the bit-serial oracle with
// the same bins and requires the same BitPos() after every call and the
// same bytes after Flush. lead unaligned bits precede the codeword, and a
// second codeword follows the first on the same writer.
func encodeOps(t *testing.T, lead uint, script []byte) {
	t.Helper()
	gw, ww := bitio.NewWriter(), bitio.NewWriter()
	gw.WriteBits(0x2D, lead)
	ww.WriteBits(0x2D, lead)
	for round := 0; round < 2; round++ {
		got, want := NewEncoder(gw), newRefEncoder(ww)
		var gctx [16]Context
		var wctx [16]refContext
		for i, op := range script {
			bit := int(op >> 6 & 1)
			if op&0x80 != 0 {
				got.EncodeBypass(bit)
				want.EncodeBypass(bit)
			} else {
				got.EncodeBit(&gctx[op&15], bit)
				want.EncodeBit(&wctx[op&15], bit)
			}
			if got.BitPos() != ww.BitPos() {
				t.Fatalf("round %d op %d (%#x): BitPos %d, oracle's writer at %d", round, i, op, got.BitPos(), ww.BitPos())
			}
		}
		got.Flush()
		want.Flush()
		if gw.BitPos() != ww.BitPos() || !bytes.Equal(gw.Bytes(), ww.Bytes()) {
			t.Fatalf("round %d: %d bins flushed to %d bits\n got %x\nwant %x", round, len(script), gw.BitPos(), gw.Bytes(), ww.Bytes())
		}
		if got.BitPos() != gw.BitPos() {
			t.Fatalf("round %d: BitPos after Flush %d, writer at %d", round, got.BitPos(), gw.BitPos())
		}
	}
}

// outstandingScript builds a bin sequence that keeps the bit-serial coder's
// outstanding run growing for hundreds of bits. With the range still 510, a
// bypass one takes low from 0 to 510; from there seven bypass zeros walk it
// 508, 504, ... 256, each landing in the undecided half, and a one brings it
// back to 510 — a cycle of eight outstanding bits. The oracle's own counter
// confirms the run.
func outstandingScript(t *testing.T) []byte {
	t.Helper()
	script := []byte{0xC0}
	for i := 0; i < 40; i++ {
		script = append(script, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0xC0)
	}
	e := newRefEncoder(bitio.NewWriter())
	for _, op := range script {
		e.EncodeBypass(int(op >> 6 & 1))
	}
	if e.outstanding <= 64 {
		t.Fatalf("script reaches only %d outstanding bits, want > 64", e.outstanding)
	}
	return script
}

// TestArithEncoderMatchesReference holds the byte-wise encoder to the
// bit-serial one: random bin sequences of every flavour (skewed, balanced,
// bypass-heavy, LPS-heavy), empty and one-bin codewords, unaligned starts,
// and outstanding runs of hundreds of bits resolved both ways.
func TestArithEncoderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, lead := range []uint{0, 1, 5, 7} {
		encodeOps(t, lead, nil)
		encodeOps(t, lead, []byte{0x00})
		encodeOps(t, lead, []byte{0x40})
		encodeOps(t, lead, []byte{0x80})
		encodeOps(t, lead, []byte{0xC0})
	}
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(2500)
		pOne, pBypass := rng.Intn(9), rng.Intn(9)
		script := make([]byte, n)
		for i := range script {
			op := byte(rng.Intn(16))
			if rng.Intn(8) < pOne {
				op |= 0x40
			}
			if rng.Intn(8) < pBypass {
				op |= 0x80
			}
			script[i] = op
		}
		encodeOps(t, uint(rng.Intn(8)), script)
	}
	long := outstandingScript(t)
	for _, tail := range [][]byte{nil, {0x80}, {0xC0}, {0xC0, 0xC0, 0xC0}, {0x00, 0x40, 0x01}, {0x80, 0x80, 0x80, 0x80}} {
		for _, lead := range []uint{0, 3} {
			encodeOps(t, lead, append(append([]byte{}, long...), tail...))
		}
	}
}

// FuzzArithEncoderMatchesReference is the arbitrary-script form.
func FuzzArithEncoderMatchesReference(f *testing.F) {
	f.Add(uint8(0), []byte{0, 0x40, 0x80, 0xC0, 1, 2, 3})
	f.Add(uint8(3), bytes.Repeat([]byte{0x80, 0xC0}, 100))
	f.Add(uint8(7), bytes.Repeat([]byte{0x40, 0, 0, 0, 0x45, 5, 5}, 60))
	f.Add(uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, lead uint8, script []byte) {
		encodeOps(t, uint(lead&7), script)
	})
}
