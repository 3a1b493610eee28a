package bch

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randBits(rng *rand.Rand, n int) []int {
	b := make([]int, n)
	for i := range b {
		b[i] = rng.Intn(2)
	}
	return b
}

func TestParityBitsMatchFigure8(t *testing.T) {
	// The paper's Figure 8: BCH-t over 512-bit blocks adds 10t parity bits,
	// e.g. BCH-6 adds 60 bits (11.7% overhead), BCH-16 adds 160 (31.3%).
	for _, tc := range []struct {
		t        int
		overhead float64
	}{
		{6, 0.117}, {7, 0.1365}, {8, 0.156}, {9, 0.1755}, {10, 0.195}, {11, 0.215}, {16, 0.313},
	} {
		c := MustNew(tc.t, BlockDataBits)
		if c.ParityBits() != 10*tc.t {
			t.Fatalf("BCH-%d: %d parity bits, want %d", tc.t, c.ParityBits(), 10*tc.t)
		}
		if math.Abs(c.Overhead()-tc.overhead) > 0.005 {
			t.Fatalf("BCH-%d: overhead %.4f, want ~%.4f", tc.t, c.Overhead(), tc.overhead)
		}
	}
}

func TestEncodeDecodeClean(t *testing.T) {
	c := MustNew(6, BlockDataBits)
	rng := rand.New(rand.NewSource(1))
	data := randBits(rng, BlockDataBits)
	block, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(block) != c.BlockBits() {
		t.Fatalf("block len %d, want %d", len(block), c.BlockBits())
	}
	got, n, ok := c.Decode(block)
	if !ok || n != 0 {
		t.Fatalf("clean decode: ok=%v corrected=%d", ok, n)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("bit %d mismatch", i)
		}
	}
}

func TestCorrectsUpToT(t *testing.T) {
	for _, tt := range []int{1, 2, 6, 8} {
		c := MustNew(tt, 128) // smaller payload keeps the test fast
		rng := rand.New(rand.NewSource(int64(tt)))
		for trial := 0; trial < 5; trial++ {
			data := randBits(rng, 128)
			block, _ := c.Encode(data)
			// Flip exactly tt distinct bits anywhere in the block
			// (data or parity — the code is self-correcting).
			perm := rng.Perm(len(block))[:tt]
			for _, p := range perm {
				block[p] ^= 1
			}
			got, n, ok := c.Decode(block)
			if !ok {
				t.Fatalf("t=%d trial %d: decode failed", tt, trial)
			}
			if n != tt {
				t.Fatalf("t=%d: corrected %d, want %d", tt, n, tt)
			}
			for i := range data {
				if got[i] != data[i] {
					t.Fatalf("t=%d: data bit %d wrong after correction", tt, i)
				}
			}
		}
	}
}

func TestDetectsBeyondT(t *testing.T) {
	c := MustNew(2, 128)
	rng := rand.New(rand.NewSource(9))
	failures := 0
	for trial := 0; trial < 20; trial++ {
		data := randBits(rng, 128)
		block, _ := c.Encode(data)
		for _, p := range rng.Perm(len(block))[:5] { // t+3 errors
			block[p] ^= 1
		}
		if _, _, ok := c.Decode(block); !ok {
			failures++
		}
	}
	// Beyond-t patterns are usually flagged; occasionally they alias into a
	// correctable pattern (miscorrection), which is inherent to BCH.
	if failures < 15 {
		t.Fatalf("only %d/20 beyond-t patterns detected", failures)
	}
}

func TestCorrectionProperty(t *testing.T) {
	c := MustNew(3, 64)
	rng := rand.New(rand.NewSource(42))
	prop := func(seed int64, nErr uint8) bool {
		k := int(nErr) % 4 // 0..3 errors
		r := rand.New(rand.NewSource(seed))
		data := randBits(r, 64)
		block, _ := c.Encode(data)
		for _, p := range r.Perm(len(block))[:k] {
			block[p] ^= 1
		}
		got, n, ok := c.Decode(block)
		if !ok || n != k {
			return false
		}
		for i := range data {
			if got[i] != data[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rng}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeWrongLength(t *testing.T) {
	c := MustNew(2, 64)
	if _, err := c.Encode(make([]int, 63)); err == nil {
		t.Fatal("short payload must error")
	}
	if _, _, ok := c.Decode(make([]int, 10)); ok {
		t.Fatal("wrong block size must fail")
	}
}

func TestNewRejectsBadParams(t *testing.T) {
	if _, err := New(0, 512); err == nil {
		t.Fatal("t=0 must be rejected")
	}
	if _, err := New(60, 512); err == nil {
		t.Fatal("t=60 must be rejected")
	}
	if _, err := New(16, 1000); err == nil {
		t.Fatal("block longer than n=1023 must be rejected")
	}
}

func TestUncorrectableBlockProbLadder(t *testing.T) {
	// Each extra correctable bit should buy roughly an order of magnitude at
	// raw rate 1e-3, mirroring the right axis of Figure 8 / Table 1 ladder.
	prev := UncorrectableBlockProb(6, 1e-3)
	if prev <= 0 || prev > 1e-4 {
		t.Fatalf("BCH-6 block failure %g out of plausible range", prev)
	}
	for tt := 7; tt <= 16; tt++ {
		cur := UncorrectableBlockProb(tt, 1e-3)
		ratio := prev / cur
		if ratio < 3 || ratio > 50 {
			t.Fatalf("t=%d: ladder ratio %.1f not ~1 order of magnitude", tt, ratio)
		}
		prev = cur
	}
}

func TestUncorrectableBlockProbMonotoneInP(t *testing.T) {
	for _, tt := range []int{6, 10, 16} {
		last := 0.0
		for _, p := range []float64{1e-5, 1e-4, 1e-3, 1e-2} {
			cur := UncorrectableBlockProb(tt, p)
			if cur <= last {
				t.Fatalf("t=%d: block failure must increase with p", tt)
			}
			last = cur
		}
	}
}

func TestResidualBitErrorRate(t *testing.T) {
	if ResidualBitErrorRate(0, 1e-3) != 1e-3 {
		t.Fatal("no correction keeps the raw rate")
	}
	r6 := ResidualBitErrorRate(6, 1e-3)
	if r6 >= 1e-3 || r6 <= 0 {
		t.Fatalf("BCH-6 residual %g must improve on raw rate", r6)
	}
	if r16 := ResidualBitErrorRate(16, 1e-3); r16 >= r6 {
		t.Fatal("stronger codes must have lower residual rates")
	}
}

func TestSchemeOverheads(t *testing.T) {
	if got := SchemeBCH6.Overhead(); math.Abs(got-0.1171875) > 1e-9 {
		t.Fatalf("BCH-6 overhead = %v", got)
	}
	if got := SchemeBCH16.Overhead(); math.Abs(got-0.3125) > 1e-9 {
		t.Fatalf("BCH-16 overhead = %v", got)
	}
	if SchemeNone.Overhead() != 0 {
		t.Fatal("None must have zero overhead")
	}
}

func TestSchemesOrderedByStrength(t *testing.T) {
	for i := 1; i < len(Schemes); i++ {
		if Schemes[i].T <= Schemes[i-1].T {
			t.Fatal("Schemes must be ordered weakest to strongest")
		}
		if Schemes[i].NominalRate >= Schemes[i-1].NominalRate {
			t.Fatal("stronger schemes must have lower nominal rates")
		}
	}
}

func BenchmarkEncode512(b *testing.B) {
	b.ReportAllocs()
	c := MustNew(6, BlockDataBits)
	rng := rand.New(rand.NewSource(3))
	data := randBits(rng, BlockDataBits)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Encode(data)
	}
}

func BenchmarkDecode512With3Errors(b *testing.B) {
	b.ReportAllocs()
	c := MustNew(6, BlockDataBits)
	rng := rand.New(rand.NewSource(3))
	data := randBits(rng, BlockDataBits)
	clean, _ := c.Encode(data)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		block := append([]int(nil), clean...)
		block[5] ^= 1
		block[100] ^= 1
		block[400] ^= 1
		c.Decode(block)
	}
}
