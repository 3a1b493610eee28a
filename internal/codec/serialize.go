package codec

import (
	"encoding/binary"
	"fmt"
	"math"

	"videoapp/internal/bitio"
)

// Container format: a compact serialization of an encoded video. The layout
// mirrors the storage system's reliability split — a precisely-stored
// sequence header and per-frame headers, followed by the approximable
// entropy-coded payloads.
//
//	magic "VAPP" | version | sequence header | per frame: header || payload
//
// Per-macroblock analysis records are not persisted: they are encoder-side
// artifacts; a container consumer decodes with the headers alone.

var containerMagic = [4]byte{'V', 'A', 'P', 'P'}

const containerVersion = 1

// Marshal serializes the video into a self-contained byte stream.
func Marshal(v *Video) []byte { return marshal(v, true) }

// MarshalPrecise serializes only the precisely-stored region of the video:
// the sequence header and the per-frame headers, with no payload bytes. The
// frame headers record each payload's length, so UnmarshalPrecise restores
// the exact frame structure with zeroed payload placeholders — the form a
// chunked archive stores in its precise cells while the payload bits live
// in the per-scheme approximate streams.
func MarshalPrecise(v *Video) []byte { return marshal(v, false) }

func marshal(v *Video, withPayload bool) []byte {
	w := bitio.NewWriter()
	for _, b := range containerMagic {
		w.WriteBits(uint64(b), 8)
	}
	w.WriteBits(containerVersion, 8)
	w.WriteUE(uint32(v.W))
	w.WriteUE(uint32(v.H))
	w.WriteUE(uint32(v.FPS))
	p := v.Params
	w.WriteUE(uint32(p.CRF))
	w.WriteUE(uint32(p.GOPSize))
	w.WriteUE(uint32(p.BFrames))
	w.WriteBool(p.BReference)
	w.WriteBits(uint64(p.Entropy), 2)
	w.WriteUE(uint32(p.SearchRange))
	w.WriteBool(true) // adaptive quantization, always on
	w.WriteUE(uint32(p.SlicesPerFrame))
	w.WriteBool(p.Deblock)
	w.WriteBool(p.HalfPel)
	w.WriteUE(uint32(len(v.Frames)))
	w.AlignByte()
	out := w.Bytes()
	for _, f := range v.Frames {
		hdr := marshalHeader(f)
		var lenBuf [4]byte
		binary.BigEndian.PutUint32(lenBuf[:], uint32(len(hdr)))
		out = append(out, lenBuf[:]...)
		out = append(out, hdr...)
		if withPayload {
			out = append(out, f.Payload...)
		}
	}
	return out
}

// Unmarshal parses a container produced by Marshal. The returned video
// decodes identically to the original; per-macroblock analysis records are
// not restored (run the encoder or an analysis pass to regenerate them).
func Unmarshal(data []byte) (*Video, error) { return unmarshal(data, true, 0) }

// UnmarshalPrecise parses a headers-only stream produced by MarshalPrecise:
// every frame comes back with a zeroed payload of its recorded length, ready
// for the approximate streams to be merged in. The lengths are declared by
// the input, so the caller states how many payload bytes it can account for
// (a chunk record knows the byte counts of its streams): a stream declaring
// more in total is rejected before any payload is allocated, and the
// payloads of all frames are then carved from one allocation.
func UnmarshalPrecise(data []byte, maxPayload int64) (*Video, error) {
	return unmarshal(data, false, maxPayload)
}

func unmarshal(data []byte, withPayload bool, maxPayload int64) (*Video, error) {
	r := bitio.NewReader(data)
	for _, want := range containerMagic {
		b, err := r.ReadBits(8)
		if err != nil || byte(b) != want {
			return nil, fmt.Errorf("codec: bad container magic")
		}
	}
	ver, err := r.ReadBits(8)
	if err != nil || ver != containerVersion {
		return nil, fmt.Errorf("codec: unsupported container version %d", ver)
	}
	v := &Video{}
	var fields [3]uint32
	for i := range fields {
		u, err := r.ReadUE()
		if err != nil {
			return nil, fmt.Errorf("codec: truncated sequence header")
		}
		if u > math.MaxInt32 { // an int of either width holds the rest
			return nil, fmt.Errorf("codec: sequence header value %d out of range", u)
		}
		fields[i] = u
	}
	v.W, v.H, v.FPS = int(fields[0]), int(fields[1]), int(fields[2])
	crf, err := r.ReadUE()
	if err != nil {
		return nil, errTruncated(err)
	}
	gop, err := r.ReadUE()
	if err != nil {
		return nil, errTruncated(err)
	}
	bf, err := r.ReadUE()
	if err != nil {
		return nil, errTruncated(err)
	}
	bref, err := r.ReadBool()
	if err != nil {
		return nil, errTruncated(err)
	}
	ent, err := r.ReadBits(2)
	if err != nil {
		return nil, errTruncated(err)
	}
	sr, err := r.ReadUE()
	if err != nil {
		return nil, errTruncated(err)
	}
	// The adaptive-quantization bit: the decoder reads each macroblock's QP
	// from the stream, whatever chose it.
	if _, err := r.ReadBool(); err != nil {
		return nil, errTruncated(err)
	}
	slices, err := r.ReadUE()
	if err != nil {
		return nil, errTruncated(err)
	}
	deblock, err := r.ReadBool()
	if err != nil {
		return nil, errTruncated(err)
	}
	halfpel, err := r.ReadBool()
	if err != nil {
		return nil, errTruncated(err)
	}
	nFrames, err := r.ReadUE()
	if err != nil {
		return nil, errTruncated(err)
	}
	if max(crf, gop, bf, sr, slices) > math.MaxInt32 {
		return nil, fmt.Errorf("codec: container params out of range")
	}
	v.Params = Params{
		CRF: int(crf), GOPSize: int(gop), BFrames: int(bf), BReference: bref,
		Entropy: EntropyKind(ent), SearchRange: int(sr),
		SlicesPerFrame: int(slices), Deblock: deblock, HalfPel: halfpel,
	}
	if err := v.Params.Validate(); err != nil {
		return nil, fmt.Errorf("codec: container params invalid: %w", err)
	}
	if err := checkGeometry(v.W, v.H); err != nil {
		return nil, err
	}
	if nFrames > 1<<20 {
		return nil, fmt.Errorf("codec: implausible frame count %d", nFrames)
	}
	r.AlignByte()
	pos := int(r.BitPos() / 8)
	// Every frame costs at least the four bytes of its header length, which
	// bounds the frame count by the input before the frame table exists.
	if int(nFrames) > (len(data)-pos)/4 {
		return nil, fmt.Errorf("codec: %d frames declared in %d bytes", nFrames, len(data)-pos)
	}
	frames := make([]EncodedFrame, nFrames)
	v.Frames = make([]*EncodedFrame, nFrames)
	var placeholders []int // headers-only form: the declared payload lengths
	var declared int64
	if !withPayload {
		placeholders = make([]int, nFrames)
	}
	for i := range frames {
		if pos+4 > len(data) {
			return nil, fmt.Errorf("codec: truncated at frame %d", i)
		}
		hdrLen := int(binary.BigEndian.Uint32(data[pos : pos+4]))
		pos += 4
		if hdrLen <= 0 || hdrLen > len(data)-pos {
			return nil, fmt.Errorf("codec: bad header length at frame %d", i)
		}
		f := &frames[i]
		payloadLen, err := unmarshalHeader(data[pos:pos+hdrLen], f)
		if err != nil {
			return nil, fmt.Errorf("codec: frame %d: %w", i, err)
		}
		pos += hdrLen
		if withPayload {
			if payloadLen < 0 || payloadLen > len(data)-pos {
				return nil, fmt.Errorf("codec: truncated payload at frame %d", i)
			}
			f.Payload = append([]byte(nil), data[pos:pos+payloadLen]...)
			pos += payloadLen
		} else {
			declared += int64(payloadLen)
			if payloadLen < 0 || declared > maxPayload {
				return nil, fmt.Errorf("codec: frames up to %d declare %d payload bytes, %d accounted for", i, declared, maxPayload)
			}
			placeholders[i] = payloadLen
		}
		if f.DisplayIdx >= int(nFrames) || f.CodedIdx != i {
			return nil, fmt.Errorf("codec: inconsistent frame indices at frame %d", i)
		}
		v.Frames[i] = f
	}
	if pos != len(data) {
		return nil, fmt.Errorf("codec: %d trailing bytes", len(data)-pos)
	}
	if !withPayload {
		// One zeroed slab for every placeholder, each frame's window capped
		// so that growing one payload cannot run into the next.
		slab := make([]byte, declared)
		for i, n := range placeholders {
			frames[i].Payload, slab = slab[:n:n], slab[n:]
		}
	}
	return v, nil
}

func errTruncated(err error) error {
	return fmt.Errorf("codec: truncated container: %w", err)
}
