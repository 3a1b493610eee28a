package codec

import (
	"context"
	"runtime"
	"testing"
	"time"

	"videoapp/internal/synth"
)

// Fuzz targets: the decoder and container parser must be total — any byte
// sequence either decodes to a picture or returns an error, never panics.
// Without -fuzz these run the seed corpus as regular tests.

func fuzzSeedVideo(f *testing.F) *Video {
	f.Helper()
	cfg, _ := synth.PresetByName("crew_like")
	seq := synth.Generate(cfg.ScaleTo(64, 48, 4))
	p := DefaultParams()
	p.GOPSize = 4
	p.SearchRange = 8
	v, err := encode(seq, p)
	if err != nil {
		f.Fatal(err)
	}
	return v
}

// fuzzDecodeAllocCeiling bounds what one decode of a fuzz input may
// allocate. The 64×48 four-frame seed video decodes into about 20 KB of
// planes; the ceiling only has to separate that from an allocation sized by
// a corrupt field.
const fuzzDecodeAllocCeiling = 16 << 20

// decodeWithinCeilings decodes v, which must succeed, inside the time
// ceiling FuzzDecodeVsReference applies (fuzzDecodeCeiling) and the
// allocation ceiling above: the end-of-stream and desync paths these
// targets exist for must stay bounded by the picture, not by the input.
func decodeWithinCeilings(t *testing.T, v *Video, what string) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	_, err := DecodeContext(context.Background(), v, DecodeOptions{}, 1)
	took := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("decode must tolerate %s: %v", what, err)
	}
	if took > fuzzDecodeCeiling {
		t.Fatalf("decode took %v, ceiling %v", took, fuzzDecodeCeiling)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > fuzzDecodeAllocCeiling {
		t.Fatalf("decode allocated %d bytes, ceiling %d", n, fuzzDecodeAllocCeiling)
	}
}

func FuzzDecodePayload(f *testing.F) {
	v := fuzzSeedVideo(f)
	f.Add(v.Frames[1].Payload)
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, payload []byte) {
		c := v.Clone()
		c.Frames[1].Payload = payload
		decodeWithinCeilings(t, c, "arbitrary payloads")
		checkDecodeRoutes(t, "arbitrary payload", c)
	})
}

func FuzzUnmarshal(f *testing.F) {
	v := fuzzSeedVideo(f)
	f.Add(Marshal(v))
	f.Add([]byte("VAPP"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Unmarshal(data)
		if err != nil {
			return // rejected is fine; panics are not
		}
		// Whatever parses must also decode safely.
		if _, err := DecodeContext(context.Background(), got, DecodeOptions{}, 1); err != nil {
			// Geometry or index errors are acceptable outcomes.
			return
		}
	})
}

func FuzzCorruptSliceTables(f *testing.F) {
	v := fuzzSeedVideo(f)
	f.Add(0, 0)
	f.Add(1000, -5)
	f.Fuzz(func(t *testing.T, mbStart, byteStart int) {
		c := v.Clone()
		c.Frames[1].SliceMBStart = []int{0, mbStart}
		c.Frames[1].SliceByteStart = []int{0, byteStart}
		decodeWithinCeilings(t, c, "corrupt slice tables")
		checkDecodeRoutes(t, "corrupt slice table", c)
	})
}
