package bitio

import (
	"bytes"
	"math/rand"
	"testing"
)

// copyBitsCase runs CopyBits and copyBitsRef on identical poisoned buffers
// and reports the first difference.
func copyBitsCase(t *testing.T, src []byte, dstLen int, poison byte, dstPos, srcPos, n int64) {
	t.Helper()
	want := bytes.Repeat([]byte{poison}, dstLen)
	got := bytes.Repeat([]byte{poison}, dstLen)
	srcCopy := bytes.Clone(src)
	copyBitsRef(want, dstPos, src, srcPos, n)
	CopyBits(got, dstPos, src, srcPos, n)
	if !bytes.Equal(got, want) {
		t.Fatalf("CopyBits(dst[%d], %d, src[%d], %d, %d) poison %#x:\n got %x\nwant %x", dstLen, dstPos, len(src), srcPos, n, poison, got, want)
	}
	if !bytes.Equal(src, srcCopy) {
		t.Fatal("CopyBits modified src")
	}
}

// TestCopyBitsMatchesReference sweeps every (src phase, dst phase, length)
// combination over small buffers, in range and hanging off either end, with
// dst poisoned both ways so a bit written outside the run cannot hide.
func TestCopyBitsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := make([]byte, 27)
	rng.Read(src)
	for _, poison := range []byte{0x00, 0xFF, 0xA5} {
		for srcPos := int64(-9); srcPos < 24; srcPos++ {
			for dstPos := int64(-9); dstPos < 24; dstPos++ {
				for _, n := range []int64{-3, 0, 1, 2, 7, 8, 9, 15, 16, 17, 63, 64, 65, 71, 127, 150, 199, 250} {
					copyBitsCase(t, src, 25, poison, dstPos, srcPos, n)
				}
			}
		}
		// Near the far end of both buffers.
		for srcPos := int64(len(src))*8 - 70; srcPos < int64(len(src))*8+3; srcPos++ {
			for _, dstPos := range []int64{0, 3, 130, 197, 199, 200, 201} {
				for _, n := range []int64{1, 5, 8, 64, 69, 70, 71, 100} {
					copyBitsCase(t, src, 25, poison, dstPos, srcPos, n)
				}
			}
		}
	}
}

// FuzzCopyBitsMatchesReference drives CopyBits with arbitrary offsets and
// lengths — negative, zero, past the end — against the bit-at-a-time oracle.
func FuzzCopyBitsMatchesReference(f *testing.F) {
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint8(20), uint8(0xFF), int16(3), int16(5), int16(100))
	f.Add([]byte{0xDE, 0xAD, 0xBE, 0xEF}, uint8(4), uint8(0), int16(0), int16(0), int16(32))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18}, uint8(18), uint8(0x5A), int16(8), int16(1), int16(130))
	f.Add([]byte{0xFF}, uint8(3), uint8(0), int16(-4), int16(-9), int16(40))
	f.Add([]byte{}, uint8(0), uint8(0), int16(0), int16(0), int16(0))
	f.Add([]byte{0x80, 0x01}, uint8(2), uint8(0xFF), int16(15), int16(-1), int16(-7))
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1}, uint8(9), uint8(0xF0), int16(70), int16(70), int16(500))
	f.Fuzz(func(t *testing.T, src []byte, dstLen, poison uint8, dstPos, srcPos, n int16) {
		copyBitsCase(t, src, int(dstLen), poison, int64(dstPos), int64(srcPos), int64(n))
	})
}

// TestCopyBitsExtremeOffsets covers magnitudes the fuzz target's int16
// arguments cannot reach: the clipping arithmetic must not overflow. The
// oracle cannot run these (it would loop for 2^63 iterations), so the
// expectation is stated directly: nothing or exactly the overlapping run.
func TestCopyBitsExtremeOffsets(t *testing.T) {
	const maxI, minI = int64(^uint64(0) >> 1), -int64(^uint64(0)>>1) - 1
	src := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	for _, c := range []struct{ dstPos, srcPos, n int64 }{
		{minI, 0, maxI}, {0, minI, maxI}, {minI, minI, maxI},
		{maxI, 0, maxI}, {0, maxI, maxI}, {maxI, maxI, maxI},
		{-5, maxI - 2, maxI}, {maxI - 2, -5, maxI}, {minI + 1, 3, maxI}, {3, minI + 1, maxI},
		// Skipping the bits before one buffer runs the other off its end,
		// with and without wrapping around on the way.
		{minI + 2, 3, maxI}, {3, minI + 2, maxI}, {-9, 30, 50}, {30, -9, 50},
	} {
		dst := make([]byte, 4)
		CopyBits(dst, c.dstPos, src, c.srcPos, c.n)
		if !bytes.Equal(dst, make([]byte, 4)) {
			t.Fatalf("CopyBits(%d, %d, %d) wrote %x, want nothing", c.dstPos, c.srcPos, c.n, dst)
		}
	}
	dst := make([]byte, 4)
	CopyBits(dst, 4, src, -2, maxI) // bits 2.. of the run exist on both sides
	if want := []byte{0x03, 0xFF, 0xFF, 0xFF}; !bytes.Equal(dst, want) {
		t.Fatalf("got %x, want %x", dst, want)
	}
}

// TestAppendBitsMatchesPerBit pins Writer.AppendBits to the WriteBit(GetBit)
// loop it replaces, from every writer phase, source phase and length,
// including runs that end or start past the source.
func TestAppendBitsMatchesPerBit(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	src := make([]byte, 21)
	rng.Read(src)
	for lead := uint(0); lead < 9; lead++ {
		for srcPos := int64(0); srcPos < int64(len(src))*8+20; srcPos += 3 {
			for _, n := range []int64{-1, 0, 1, 6, 7, 8, 9, 23, 64, 65, 100, 180} {
				want, got := NewWriter(), NewWriter()
				want.WriteBits(0x1B5, lead)
				got.WriteBits(0x1B5, lead)
				for i := int64(0); i < n; i++ {
					want.WriteBit(GetBit(src, srcPos+i))
				}
				got.AppendBits(src, srcPos, n)
				// One more bit proves the partial-byte state is coherent.
				want.WriteBit(1)
				got.WriteBit(1)
				if got.BitPos() != want.BitPos() || !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Fatalf("lead %d srcPos %d n %d: got %x (%d bits), want %x (%d bits)", lead, srcPos, n, got.Bytes(), got.BitPos(), want.Bytes(), want.BitPos())
				}
			}
		}
	}
}

// TestWordFormsMatchPerBitOracles pins AlignByte, WriteUE and the bit
// length behind it, and ReadUE to their bit-loop forms, ReadUE on arbitrary (mostly
// invalid) streams from every start position: value, error and the position
// the reader is left at.
func TestWordFormsMatchPerBitOracles(t *testing.T) {
	for n := uint(0); n < 20; n++ {
		a, b := NewWriter(), NewWriter()
		a.WriteBits(0xABCDE, n)
		b.WriteBits(0xABCDE, n)
		a.AlignByte()
		alignByteRef(b)
		if a.BitPos() != b.BitPos() || !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("AlignByte after %d bits: %x/%d vs %x/%d", n, a.Bytes(), a.BitPos(), b.Bytes(), b.BitPos())
		}
	}
	for s := uint(0); s < 64; s++ {
		for _, x := range []uint64{1 << s, 1<<s | 1, 1<<s - 1} {
			w := NewWriter()
			w.WriteUE(uint32(x))
			if n := bitLen64Ref(uint64(uint32(x)) + 1); w.BitPos() != int64(2*n-1) {
				t.Fatalf("WriteUE(%d) wrote %d bits, want %d", uint32(x), w.BitPos(), 2*n-1)
			}
			// The code itself, after every partial-byte fill: one write of
			// 2n-1 bits, two for the 65-bit code of 2³²-1.
			for lead := uint(0); lead < 8; lead++ {
				a, b := NewWriter(), NewWriter()
				a.WriteBits(0x5A, lead)
				b.WriteBits(0x5A, lead)
				a.WriteUE(uint32(x))
				writeUERef(b, uint32(x))
				if a.BitPos() != b.BitPos() || !bytes.Equal(a.Bytes(), b.Bytes()) {
					t.Fatalf("WriteUE(%d) after %d bits: %x/%d, per-bit %x/%d", uint32(x), lead, a.Bytes(), a.BitPos(), b.Bytes(), b.BitPos())
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 4000; trial++ {
		buf := make([]byte, rng.Intn(14))
		rng.Read(buf)
		// Long zero runs are what the cap exists for; plant some.
		for i := range buf {
			if rng.Intn(3) > 0 {
				buf[i] = 0
			}
		}
		if len(buf) > 0 && rng.Intn(2) == 0 {
			buf[rng.Intn(len(buf))] = byte(1 << uint(rng.Intn(8)))
		}
		checkReadUE(t, buf, int64(rng.Intn(len(buf)*8+12)))
	}
}

func checkReadUE(t *testing.T, buf []byte, start int64) {
	t.Helper()
	a, b := NewReader(buf), NewReader(buf)
	a.SeekBit(start)
	b.SeekBit(start)
	for i := 0; i < 6; i++ {
		gv, gerr := a.ReadUE()
		wv, werr := readUERef(b)
		if gv != wv || gerr != werr || a.BitPos() != b.BitPos() {
			t.Fatalf("ReadUE #%d of %x from bit %d: got (%d, %v) at %d, want (%d, %v) at %d", i, buf, start, gv, gerr, a.BitPos(), wv, werr, b.BitPos())
		}
	}
}

// FuzzReadUEMatchesReference is the arbitrary-input form of the ReadUE check.
func FuzzReadUEMatchesReference(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x80, 0x00, 0x00, 0x00, 0xFF}, uint8(0))
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x40}, uint8(0))
	f.Add([]byte{0xA6, 0x42, 0x98, 0xE2, 0x04, 0x8A}, uint8(3))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, uint8(7))
	f.Add([]byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, buf []byte, start uint8) {
		checkReadUE(t, buf, int64(start))
	})
}

// BenchmarkCopyBits measures the stream merge kernel on a chunk-sized run
// (9.5 KB, the serve_cold chunk's payload), byte-aligned and not.
func BenchmarkCopyBits(b *testing.B) {
	src := make([]byte, 9600)
	rand.New(rand.NewSource(4)).Read(src)
	dst := make([]byte, len(src)+8)
	for _, c := range []struct {
		name           string
		dstPos, srcPos int64
	}{{"aligned", 16, 8}, {"unaligned", 13, 3}} {
		b.Run(c.name, func(b *testing.B) {
			n := int64(len(src))*8 - 16
			b.SetBytes(n / 8)
			for i := 0; i < b.N; i++ {
				CopyBits(dst, c.dstPos, src, c.srcPos, n)
			}
		})
	}
}
