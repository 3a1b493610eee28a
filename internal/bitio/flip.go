package bitio

import "encoding/binary"

// FlipBit inverts the bit at absolute bit offset pos (MSB-first) in buf.
// Offsets outside the buffer are ignored.
func FlipBit(buf []byte, pos int64) {
	if pos < 0 || pos >= int64(len(buf))*8 {
		return
	}
	buf[pos>>3] ^= 1 << (7 - uint(pos&7))
}

// GetBit returns the bit at absolute bit offset pos, or 0 outside the buffer.
func GetBit(buf []byte, pos int64) int {
	if pos < 0 || pos >= int64(len(buf))*8 {
		return 0
	}
	return int(buf[pos>>3] >> (7 - uint(pos&7)) & 1)
}

// Window returns the bits of buf from bit offset pos (pos >= 0) on,
// left-aligned in a word: the stream's bit pos is the word's bit 63. The top
// 64-(pos&7) bits are stream bits — at least 57 — and the rest are zero;
// bits past the end of buf read as zero. It is the one load every word-wide
// reader in the tree (ReadUE, the arithmetic decoder's refill) is built on.
func Window(buf []byte, pos int64) uint64 {
	i := int(pos >> 3)
	if i+8 <= len(buf) {
		return binary.BigEndian.Uint64(buf[i:]) << uint(pos&7)
	}
	var w uint64
	for j := 0; j < 8 && i+j < len(buf); j++ {
		w |= uint64(buf[i+j]) << uint(56-8*j)
	}
	return w << uint(pos&7)
}

// CopyBits copies n bits starting at bit offset srcPos in src into dst
// starting at bit offset dstPos. Regions must already be allocated; bits
// outside either buffer are skipped. The skipped bits are always a prefix
// and a suffix of the run, so the copy clips the run to the part both
// buffers hold and moves that in bytes and words. src and dst must not
// overlap.
func CopyBits(dst []byte, dstPos int64, src []byte, srcPos, n int64) {
	srcBits, dstBits := int64(len(src))*8, int64(len(dst))*8
	if n <= 0 || srcPos >= srcBits || dstPos >= dstBits {
		return
	}
	if lo := min(srcPos, dstPos); lo < 0 {
		// The first -lo bits lie before the start of one of the buffers.
		if lo <= -n || srcPos >= srcBits+lo || dstPos >= dstBits+lo {
			return
		}
		srcPos, dstPos, n = srcPos-lo, dstPos-lo, n+lo
	}
	n = min(n, srcBits-srcPos, dstBits-dstPos)

	// Head: bring dst to a byte boundary.
	if d := uint(dstPos & 7); d != 0 {
		k := min(8-d, uint(n))
		mask := byte(0xFF>>d) &^ byte(0xFF>>(d+k))
		v := byte(Window(src, srcPos) >> (56 + d))
		dst[dstPos>>3] = dst[dstPos>>3]&^mask | v&mask
		srcPos, dstPos, n = srcPos+int64(k), dstPos+int64(k), n-int64(k)
	}
	// Body: whole dst bytes, eight at a time, then singly.
	di, si, sh := int(dstPos>>3), int(srcPos>>3), uint(srcPos&7)
	nb := int(n >> 3)
	if sh == 0 {
		copy(dst[di:di+nb], src[si:])
	} else {
		// The run was clipped to src, so the byte after each group exists.
		j := 0
		for ; j+8 <= nb; j += 8 {
			w := binary.BigEndian.Uint64(src[si+j:])<<sh | uint64(src[si+j+8])>>(8-sh)
			binary.BigEndian.PutUint64(dst[di+j:], w)
		}
		for ; j < nb; j++ {
			dst[di+j] = src[si+j]<<sh | src[si+j+1]>>(8-sh)
		}
	}
	// Tail: the last n&7 bits land in the top of the next dst byte.
	if k := uint(n & 7); k != 0 {
		mask := ^byte(0xFF >> k)
		v := byte(Window(src, srcPos+int64(nb)*8) >> 56)
		dst[di+nb] = dst[di+nb]&^mask | v&mask
	}
}
