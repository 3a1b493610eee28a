package core

import (
	"fmt"

	"videoapp/internal/bch"
	"videoapp/internal/bitio"
)

// Pivot tables are part of the precisely-stored frame headers (§4.4): a few
// bytes per frame that let the storage controller map every payload bit to
// its correction scheme, and the reader reassemble the streams. This file
// gives them a compact serialized form.

// schemeID assigns each scheme a stable 4-bit identifier.
func schemeID(name string) (int, error) {
	for i, s := range bch.Schemes {
		if s.Name == name {
			return i, nil
		}
	}
	if name == "Ideal" {
		return 15, nil
	}
	return 0, fmt.Errorf("core: unknown scheme %q", name)
}

func schemeByID(id int) bch.Scheme {
	if id == 15 {
		return bch.Scheme{Name: "Ideal", T: 0, NominalRate: 0}
	}
	if id >= 0 && id < len(bch.Schemes) {
		return bch.Schemes[id]
	}
	return bch.SchemeNone
}

// MarshalPartitions serializes the per-frame pivot tables.
func MarshalPartitions(parts []FramePartition) ([]byte, error) {
	w := bitio.NewWriter()
	w.WriteUE(uint32(len(parts)))
	for _, fp := range parts {
		w.WriteUE(uint32(len(fp.Pivots)))
		var prev int64
		for _, pv := range fp.Pivots {
			if pv.Bit < prev {
				return nil, fmt.Errorf("core: frame %d pivots not sorted", fp.Frame)
			}
			w.WriteUE(uint32(pv.Bit - prev)) // delta coding keeps it tiny
			prev = pv.Bit
			id, err := schemeID(pv.Scheme.Name)
			if err != nil {
				return nil, err
			}
			w.WriteBits(uint64(id), 4)
		}
	}
	w.AlignByte()
	return w.Bytes(), nil
}

// UnmarshalPartitions parses tables produced by MarshalPartitions.
func UnmarshalPartitions(data []byte) ([]FramePartition, error) {
	r := bitio.NewReader(data)
	n, err := r.ReadUE()
	if err != nil || n > 1<<20 {
		return nil, fmt.Errorf("core: bad partition table header")
	}
	parts := make([]FramePartition, n)
	for f := range parts {
		parts[f].Frame = f
		np, err := r.ReadUE()
		if err != nil || np > 64 {
			return nil, fmt.Errorf("core: frame %d: bad pivot count", f)
		}
		if np > 0 {
			parts[f].Pivots = make([]Pivot, 0, np)
		}
		var pos int64
		for i := uint32(0); i < np; i++ {
			delta, err := r.ReadUE()
			if err != nil {
				return nil, fmt.Errorf("core: frame %d: truncated pivots", f)
			}
			id, err := r.ReadBits(4)
			if err != nil {
				return nil, fmt.Errorf("core: frame %d: truncated scheme id", f)
			}
			pos += int64(delta)
			parts[f].Pivots = append(parts[f].Pivots, Pivot{Bit: pos, Scheme: schemeByID(int(id))})
		}
	}
	return parts, nil
}
