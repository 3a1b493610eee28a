package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// v1Header hand-crafts a chunkless VACS v1 container: the checksum-less
// layout no reader supports anymore, which open must reject by its version
// byte.
func v1Header() []byte {
	hdr := make([]byte, archiveHeaderLen)
	copy(hdr, "VACS")
	hdr[4] = 1
	binary.BigEndian.PutUint32(hdr[5:9], 64)   // W
	binary.BigEndian.PutUint32(hdr[9:13], 48)  // H
	binary.BigEndian.PutUint32(hdr[13:17], 30) // FPS
	binary.BigEndian.PutUint32(hdr[17:21], 4)  // GOPSize
	binary.BigEndian.PutUint32(hdr[21:25], 1)  // GOPsPerChunk
	return hdr
}

// FuzzOpenArchive asserts the container parser is total: for ANY byte
// slice, opening either succeeds or fails with the package's typed errors —
// it never panics, never loops, and never surfaces a raw io.EOF from a
// truncated read. When the index parses, the whole metadata surface must be
// usable, and reading a chunk must likewise end in frames or a typed error. This is the guarantee the serving layer's error mapping is
// built on: every storage-level failure has an errors.Is identity.
func FuzzOpenArchive(f *testing.F) {
	valid := archiveOf(f, 2).archive
	f.Add([]byte{})
	f.Add([]byte("VACS"))
	f.Add(v1Header())
	f.Add(valid)
	f.Add(valid[:archiveHeaderLen])    // header only, no records
	f.Add(valid[:len(valid)-1])        // truncated payload
	f.Add(valid[:archiveHeaderLen+10]) // truncated chunk header
	f.Add(bytes.Replace(valid, []byte("CHNK"), []byte("JUNK"), 1))
	wrongVersion := bytes.Clone(valid)
	wrongVersion[4] = 1 // v2 record layout under a v1 version byte
	f.Add(wrongVersion)

	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := OpenArchiveBackend(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorruptRecord) && !errors.Is(err, ErrReadFailed) {
				t.Fatalf("open: untyped error %v (input %d bytes)", err, len(data))
			}
			if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("open: raw io.EOF escaped the parser: %v", err)
			}
			return
		}
		// The index parsed: every metadata accessor must be total.
		meta := a.Meta()
		if meta.W <= 0 || meta.H <= 0 {
			t.Fatalf("parsed archive with invalid meta %+v", meta)
		}
		if data[4] != chunkedVersion {
			t.Fatalf("parsed archive with version byte %d", data[4])
		}
		frames := 0
		for i := 0; i < a.NumChunks(); i++ {
			info, err := a.Info(i)
			if err != nil {
				t.Fatalf("Info(%d) failed on an indexed chunk: %v", i, err)
			}
			if info.Offset < archiveHeaderLen || info.Length < 0 || info.Frames < 1 {
				t.Fatalf("Info(%d) = %+v: implausible indexed record", i, info)
			}
			frames += info.Frames
			// A fabricated multi-gigabyte length cannot balloon the read:
			// the record is probed before its buffer is allocated, and the
			// payload placeholders are bounded by the stream bytes
			// (TestReadChunkProbesHugeRecord,
			// TestReadChunkBoundsDeclaredPayload).
			cr, err := a.ReadChunkContext(t.Context(), i)
			switch {
			case err == nil:
				if len(cr.Video.Frames) != info.Frames {
					t.Fatalf("chunk %d decoded %d frames, index says %d", i, len(cr.Video.Frames), info.Frames)
				}
			case errors.Is(err, ErrCorruptRecord), errors.Is(err, ErrReadFailed):
			default:
				t.Fatalf("chunk %d: untyped error %v", i, err)
			}
		}
		if a.TotalFrames() != frames {
			t.Fatalf("TotalFrames = %d, index sums to %d", a.TotalFrames(), frames)
		}
	})
}
