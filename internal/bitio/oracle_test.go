package bitio

// The per-bit forms this package had before the word-wide rewrite, kept
// verbatim as test oracles: the production CopyBits, Writer.AlignByte,
// bitLen64, Writer.WriteUE and Reader.ReadUE must agree with them bit for
// bit (see differential_test.go).

// copyBitsRef is the bit-at-a-time CopyBits.
func copyBitsRef(dst []byte, dstPos int64, src []byte, srcPos, n int64) {
	for i := int64(0); i < n; i++ {
		sp, dp := srcPos+i, dstPos+i
		if sp < 0 || sp >= int64(len(src))*8 || dp < 0 || dp >= int64(len(dst))*8 {
			continue
		}
		b := src[sp>>3] >> (7 - uint(sp&7)) & 1
		mask := byte(1) << (7 - uint(dp&7))
		if b == 1 {
			dst[dp>>3] |= mask
		} else {
			dst[dp>>3] &^= mask
		}
	}
}

// alignByteRef is the bit-at-a-time Writer.AlignByte.
func alignByteRef(w *Writer) {
	for w.nCur != 0 {
		w.WriteBit(0)
	}
}

// bitLen64Ref is the shift-loop bit length.
func bitLen64Ref(x uint64) uint {
	var n uint
	for x != 0 {
		n++
		x >>= 1
	}
	return n
}

// writeUERef is the bit-at-a-time Writer.WriteUE: the zeros, then v+1 from
// its top bit down.
func writeUERef(w *Writer, v uint32) {
	x := uint64(v) + 1
	n := bitLen64Ref(x)
	for i := uint(1); i < n; i++ {
		w.WriteBit(0)
	}
	for i := int(n) - 1; i >= 0; i-- {
		w.WriteBit(int(x >> uint(i) & 1))
	}
}

// readUERef is the bit-at-a-time Reader.ReadUE.
func readUERef(r *Reader) (uint32, error) {
	var zeros uint
	for {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		if b == 1 {
			break
		}
		zeros++
		if zeros > 32 {
			return 0, ErrOutOfBits
		}
	}
	rest, err := r.ReadBits(zeros)
	if err != nil {
		return 0, err
	}
	v := (uint64(1)<<zeros | rest) - 1
	return uint32(v), nil
}
