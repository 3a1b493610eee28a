package entropy

import (
	"bytes"
	"math/rand"
	"testing"

	"videoapp/internal/bitio"
)

// binScript draws n bins in the script form decodeOps and encodeOps take:
// each a context bin of one of ctxs contexts, or with probability pBypass a
// bypass bin, whose value (bit 6) is one with probability pOne.
func binScript(rng *rand.Rand, n, ctxs int, pOne, pBypass float64) []byte {
	script := make([]byte, n)
	for i := range script {
		script[i] = byte(rng.Intn(ctxs))
		if rng.Float64() < pOne {
			script[i] |= 0x40
		}
		if rng.Float64() < pBypass {
			script[i] |= 0x80
		}
	}
	return script
}

// encodeScript codes script's bins with the encoder into a flushed payload.
func encodeScript(script []byte) []byte {
	w := bitio.NewWriter()
	enc := NewEncoder(w)
	var ctxs [16]Context
	for _, op := range script {
		if op&0x80 != 0 {
			enc.EncodeBypass(int(op >> 6 & 1))
		} else {
			enc.EncodeBit(&ctxs[op&15], int(op>>6&1))
		}
	}
	enc.Flush()
	return bytes.Clone(w.Bytes())
}

// decodeScript decodes script's bins from data and returns how many differ
// from script's and the decoder's overruns. Decoding never fails, whatever
// data holds.
func decodeScript(data, script []byte) (wrong, overruns int) {
	dec := NewDecoder(bitio.NewReader(data))
	var ctxs [16]Context
	for _, op := range script {
		bin := 0
		if op&0x80 != 0 {
			bin = dec.DecodeBypass()
		} else {
			bin = dec.DecodeBit(&ctxs[op&15])
		}
		if bin != int(op>>6&1) {
			wrong++
		}
	}
	return wrong, dec.Overruns()
}

// arithRoundTrip: script's bins decode back from their payload, reading at
// most the padding past its end.
func arithRoundTrip(t *testing.T, script []byte) {
	t.Helper()
	if wrong, overruns := decodeScript(encodeScript(script), script); wrong != 0 || overruns > 16 {
		t.Fatalf("%d of %d bins decode wrong, %d overruns on a clean stream", wrong, len(script), overruns)
	}
}

// TestArithRoundTripSingleContext: a biased source, mostly zeros, which the
// context learns.
func TestArithRoundTripSingleContext(t *testing.T) {
	arithRoundTrip(t, binScript(rand.New(rand.NewSource(1)), 5000, 1, 0.15, 0))
}

func TestArithCompressesBiasedSource(t *testing.T) {
	// Entropy of p=0.05 is ~0.286 bits/symbol; the adaptive coder should
	// get well below 0.5 bits/symbol.
	const n = 20000
	if got := 8 * len(encodeScript(binScript(rand.New(rand.NewSource(2)), n, 1, 0.05, 0))); got > n/2 {
		t.Fatalf("coded %d bits for %d symbols; no compression achieved", got, n)
	}
}

func TestArithBypassRoundTrip(t *testing.T) {
	arithRoundTrip(t, binScript(rand.New(rand.NewSource(3)), 3000, 1, 0.5, 1))
}

func TestArithMixedContextAndBypass(t *testing.T) {
	arithRoundTrip(t, binScript(rand.New(rand.NewSource(4)), 8000, 5, 0.3, 1.0/3))
}

// TestBitFlipDesynchronizesDecoder is the motivating failure mode: one
// flipped bit early in the stream corrupts a large fraction of the bins
// decoded after it.
func TestBitFlipDesynchronizesDecoder(t *testing.T) {
	script := binScript(rand.New(rand.NewSource(5)), 4000, 1, 0.2, 0)
	payload := encodeScript(script)
	bitio.FlipBit(payload, 20)
	if wrong, _ := decodeScript(payload, script); wrong < len(script)/20 {
		t.Fatalf("only %d/%d symbols wrong after an early bit flip; decoder did not desync", wrong, len(script))
	}
}

func TestDecoderToleratesTruncation(t *testing.T) {
	script := binScript(rand.New(rand.NewSource(6)), 1000, 1, 1.0/3, 0)
	if _, overruns := decodeScript(encodeScript(script)[:4], script); overruns == 0 {
		t.Fatal("truncation must be observable via Overruns")
	}
}

func TestStateTablesSane(t *testing.T) {
	for s := 0; s < numStates; s++ {
		for q := 0; q < 4; q++ {
			if rangeLPS[s][q] < 2 || rangeLPS[s][q] > 256 {
				t.Fatalf("rangeLPS[%d][%d] = %d out of range", s, q, rangeLPS[s][q])
			}
			if q > 0 && rangeLPS[s][q] < rangeLPS[s][q-1] {
				t.Fatalf("rangeLPS[%d] not monotone in q", s)
			}
		}
		if s > 0 && rangeLPS[s][0] > rangeLPS[s-1][0] {
			t.Fatalf("rangeLPS[.][0] not monotone in state")
		}
		if int(nextMPS[s]) < s && s != numStates-1 {
			t.Fatalf("MPS transition must not decrease confidence: state %d -> %d", s, nextMPS[s])
		}
		if int(nextLPS[s]) > s {
			t.Fatalf("LPS transition must not increase confidence: state %d -> %d", s, nextLPS[s])
		}
	}
}

// arithBenchBits builds a biased bit source resembling residual syntax:
// mostly-zero significance bits that the adaptive contexts learn quickly,
// which keeps the coder in its renormalization-heavy regime.
func arithBenchBits(n int) []int {
	rng := rand.New(rand.NewSource(3))
	bits := make([]int, n)
	for i := range bits {
		if rng.Float64() < 0.12 {
			bits[i] = 1
		}
	}
	return bits
}

// arithLegs are the arithmetic coder's loops over arithBenchBits(1 << 15):
// each codes or decodes every bin once per iteration, renormalization
// included, over 16 adaptive contexts (the bypass leg: none).
var arithLegs = []struct {
	name string
	run  func(b *testing.B, bits []int)
}{
	{"encode", func(b *testing.B, bits []int) {
		w := bitio.NewWriter()
		for i := 0; i < b.N; i++ {
			w.Reset()
			enc := NewEncoder(w)
			var ctxs [16]Context
			for j, bit := range bits {
				enc.EncodeBit(&ctxs[j&15], bit)
			}
			enc.Flush()
		}
	}},
	{"decode", func(b *testing.B, bits []int) {
		w := bitio.NewWriter()
		enc := NewEncoder(w)
		var ctxs [16]Context
		for j, bit := range bits {
			enc.EncodeBit(&ctxs[j&15], bit)
		}
		enc.Flush()
		payload := w.Bytes()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dec := NewDecoder(bitio.NewReader(payload))
			var dctxs [16]Context
			for j, bit := range bits {
				if dec.DecodeBit(&dctxs[j&15]) != bit {
					b.Fatalf("decode mismatch at bit %d", j)
				}
			}
		}
	}},
	{"bypass", func(b *testing.B, bits []int) {
		w := bitio.NewWriter()
		for i := 0; i < b.N; i++ {
			w.Reset()
			enc := NewEncoder(w)
			for j := range bits {
				enc.EncodeBypass(j & 1)
			}
			enc.Flush()
		}
	}},
}

// benchArith runs leg i, reporting allocations, bytes coded and the time
// per bin.
func benchArith(b *testing.B, i int) {
	bits := arithBenchBits(1 << 15)
	b.ReportAllocs()
	arithLegs[i].run(b, bits)
	b.SetBytes(int64(len(bits) / 8))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(bits)), "ns/bin")
}

// BenchmarkArith measures every leg.
func BenchmarkArith(b *testing.B) {
	for i, leg := range arithLegs {
		b.Run(leg.name, func(b *testing.B) { benchArith(b, i) })
	}
}

// BenchmarkEncodeBit is the encode leg alone, BenchmarkDecodeBit the decode
// leg.
func BenchmarkEncodeBit(b *testing.B) { benchArith(b, 0) }

func BenchmarkDecodeBit(b *testing.B) { benchArith(b, 1) }
