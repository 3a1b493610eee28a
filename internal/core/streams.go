package core

import (
	"fmt"
	"sort"

	"videoapp/internal/bitio"
	"videoapp/internal/codec"
)

// StreamSet is the multi-stream form of a partitioned video (§5.3): each
// reliability class becomes its own bitstream so that it can be stored with
// its own error correction level and encrypted independently. The per-frame
// pivots (stored precisely with the frame headers) carry the information
// needed to merge the streams back.
type StreamSet struct {
	// Parts is the pivot layout the split was computed from.
	Parts []FramePartition
	// Streams maps scheme name to the concatenated payload bits of every
	// segment protected by that scheme, in coded order.
	Streams map[string][]byte
	// Bits is the exact bit length of each stream (the byte slices are
	// padded to whole bytes).
	Bits map[string]int64
}

// SchemeNames returns the stream names in deterministic order.
func (s *StreamSet) SchemeNames() []string {
	names := make([]string, 0, len(s.Streams))
	for n := range s.Streams {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SplitStreams separates the payloads of v into per-scheme substreams
// according to the partition layout. Each segment is appended to its stream
// as one bit range; a segment a (mismatched) layout extends past the payload
// contributes zero bits there.
func SplitStreams(v *codec.Video, parts []FramePartition) (*StreamSet, error) {
	if len(parts) != len(v.Frames) {
		return nil, fmt.Errorf("core: %w: %d partitions for %d frames", ErrPartitionMismatch, len(parts), len(v.Frames))
	}
	writers := map[string]*bitio.Writer{}
	for f, ef := range v.Frames {
		parts[f].VisitSegments(ef.PayloadBits(), func(seg Segment) {
			w, ok := writers[seg.Scheme.Name]
			if !ok {
				w = bitio.NewWriter()
				writers[seg.Scheme.Name] = w
			}
			w.AppendBits(ef.Payload, seg.Start, seg.Bits)
		})
	}
	out := &StreamSet{Parts: parts, Streams: map[string][]byte{}, Bits: map[string]int64{}}
	for name, w := range writers {
		out.Streams[name] = w.Bytes()
		out.Bits[name] = w.BitPos()
	}
	return out, nil
}

// Merge reassembles the payloads from the substreams into a deep copy of v.
// It is the exact inverse of SplitStreams given the same partition layout.
// Corrupted stream content merges back verbatim — errors stay local to the
// bits that carried them, which is what makes per-stream approximation and
// OFB/CTR encryption composable.
func (s *StreamSet) Merge(v *codec.Video) (*codec.Video, error) {
	if len(s.Parts) != len(v.Frames) {
		return nil, fmt.Errorf("core: %w: %d partitions for %d frames", ErrPartitionMismatch, len(s.Parts), len(v.Frames))
	}
	out := v.Clone()
	if err := s.MergeInto(out); err != nil {
		return nil, err
	}
	return out, nil
}

// MergeInto is Merge without the copy: it writes the substreams over the
// payloads of v itself. It is for a caller that owns v outright — the
// archive reader merges into the placeholder video it has just parsed. On
// error v's payloads are partly merged and must be discarded.
func (s *StreamSet) MergeInto(v *codec.Video) error {
	if len(s.Parts) != len(v.Frames) {
		return fmt.Errorf("core: %w: %d partitions for %d frames", ErrPartitionMismatch, len(s.Parts), len(v.Frames))
	}
	// One cursor per stream, in a slice: a chunk has a handful of schemes
	// and a lookup per segment, so a linear scan beats a map and allocates
	// once.
	type cursor struct {
		name string
		src  []byte
		pos  int64
	}
	cursors := make([]cursor, 0, len(s.Streams))
	var missing string
	for f, ef := range v.Frames {
		s.Parts[f].VisitSegments(ef.PayloadBits(), func(seg Segment) {
			if missing != "" {
				return
			}
			c := -1
			for i := range cursors {
				if cursors[i].name == seg.Scheme.Name {
					c = i
					break
				}
			}
			if c < 0 {
				src, ok := s.Streams[seg.Scheme.Name]
				if !ok {
					missing = seg.Scheme.Name
					return
				}
				c = len(cursors)
				cursors = append(cursors, cursor{name: seg.Scheme.Name, src: src})
			}
			bitio.CopyBits(ef.Payload, seg.Start, cursors[c].src, cursors[c].pos, seg.Bits)
			cursors[c].pos += seg.Bits
		})
		if missing != "" {
			return fmt.Errorf("core: missing stream %q", missing)
		}
	}
	for _, c := range cursors {
		if c.pos != s.Bits[c.name] {
			return fmt.Errorf("core: stream %q consumed %d of %d bits", c.name, c.pos, s.Bits[c.name])
		}
	}
	return nil
}
