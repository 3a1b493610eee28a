// Package y4m reads and writes the YUV4MPEG2 (.y4m) uncompressed video
// format used to distribute the Xiph.org test sequences the paper evaluates
// on, so the tools can operate on real captures in addition to the synthetic
// suite. Only the 4:2:0 chroma layout used by the codec is supported.
package y4m

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"videoapp/internal/frame"
)

// Reader decodes a Y4M stream.
type Reader struct {
	br         *bufio.Reader
	W, H, FPSN int
	FPSD       int
}

// NewReader parses the stream header. Frames are then read with Next.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	line, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("y4m: reading stream header: %w", err)
	}
	fields := strings.Fields(strings.TrimSpace(line))
	if len(fields) == 0 || fields[0] != "YUV4MPEG2" {
		return nil, fmt.Errorf("y4m: missing YUV4MPEG2 magic")
	}
	out := &Reader{br: br, FPSN: 25, FPSD: 1}
	for _, f := range fields[1:] {
		if len(f) < 2 {
			continue
		}
		val := f[1:]
		switch f[0] {
		case 'W':
			out.W, err = strconv.Atoi(val)
		case 'H':
			out.H, err = strconv.Atoi(val)
		case 'F':
			parts := strings.SplitN(val, ":", 2)
			if len(parts) == 2 {
				out.FPSN, _ = strconv.Atoi(parts[0])
				out.FPSD, _ = strconv.Atoi(parts[1])
			}
		case 'C':
			if !strings.HasPrefix(val, "420") {
				return nil, fmt.Errorf("y4m: unsupported chroma layout C%s (only 4:2:0)", val)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("y4m: bad header field %q: %w", f, err)
		}
	}
	if out.W <= 0 || out.H <= 0 {
		return nil, fmt.Errorf("y4m: missing dimensions")
	}
	if out.W%frame.MBSize != 0 || out.H%frame.MBSize != 0 {
		return nil, fmt.Errorf("y4m: %dx%d not a multiple of %d (crop or pad first)", out.W, out.H, frame.MBSize)
	}
	if out.FPSD <= 0 {
		out.FPSD = 1
	}
	return out, nil
}

// FPS returns the integer frame rate (rounded).
func (r *Reader) FPS() int {
	return (r.FPSN + r.FPSD/2) / r.FPSD
}

// Next reads one frame, or io.EOF at end of stream.
func (r *Reader) Next() (*frame.Frame, error) {
	line, err := r.br.ReadString('\n')
	if err != nil {
		if err == io.EOF && line == "" {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("y4m: reading frame header: %w", err)
	}
	if !strings.HasPrefix(line, "FRAME") {
		return nil, fmt.Errorf("y4m: expected FRAME marker, got %q", strings.TrimSpace(line))
	}
	f := frame.MustNew(r.W, r.H)
	for _, plane := range [][]uint8{f.Y, f.Cb, f.Cr} {
		if _, err := io.ReadFull(r.br, plane); err != nil {
			return nil, fmt.Errorf("y4m: truncated frame: %w", err)
		}
	}
	return f, nil
}

// ReadAll decodes the whole stream into a sequence.
func ReadAll(r io.Reader, name string) (*frame.Sequence, error) {
	yr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	seq := &frame.Sequence{Name: name, FPS: yr.FPS()}
	for {
		f, err := yr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		seq.Frames = append(seq.Frames, f)
	}
	if len(seq.Frames) == 0 {
		return nil, fmt.Errorf("y4m: stream has no frames")
	}
	return seq, nil
}

// frameMarker opens every frame of a stream.
const frameMarker = "FRAME\n"

// check reports a sequence Write cannot encode: no frames, or frames of
// differing sizes.
func check(seq *frame.Sequence) error {
	if len(seq.Frames) == 0 {
		return fmt.Errorf("y4m: empty sequence")
	}
	for _, f := range seq.Frames {
		if f.W != seq.W() || f.H != seq.H() {
			return fmt.Errorf("y4m: inconsistent frame sizes")
		}
	}
	return nil
}

// appendHeader appends the stream header of w×h frames at fps frames per
// second (25 when fps <= 0).
func appendHeader(dst []byte, w, h, fps int) []byte {
	if fps <= 0 {
		fps = 25
	}
	dst = append(dst, "YUV4MPEG2 W"...)
	dst = strconv.AppendInt(dst, int64(w), 10)
	dst = append(dst, " H"...)
	dst = strconv.AppendInt(dst, int64(h), 10)
	dst = append(dst, " F"...)
	dst = strconv.AppendInt(dst, int64(fps), 10)
	return append(dst, ":1 Ip A1:1 C420\n"...)
}

// headerRoom holds any stream header: 31 bytes of text and three decimal
// ints of at most 20 bytes each.
const headerRoom = 128

// Layout is the shape of a stream: its frames' geometry, its frame rate
// and its frame count. It lets a caller hold a stream's bytes before its
// samples exist and have them produced in place (Views): the chunk server
// decodes straight into its response buffer that way.
type Layout struct {
	W, H, FPS, Frames int
}

// Size returns the length of the stream, what Write writes for a sequence
// of this shape, or an error for a shape no frame can have.
func (l Layout) Size() (int, error) {
	if l.Frames <= 0 {
		return 0, fmt.Errorf("y4m: empty sequence")
	}
	if l.W <= 0 || l.H <= 0 || l.W%frame.MBSize != 0 || l.H%frame.MBSize != 0 {
		return 0, fmt.Errorf("y4m: %dx%d frames are not positive multiples of %d", l.W, l.H, frame.MBSize)
	}
	var hdr [headerRoom]byte
	return len(appendHeader(hdr[:0], l.W, l.H, l.FPS)) + l.Frames*(len(frameMarker)+l.W*l.H*3/2), nil
}

// Views writes the stream header and every FRAME marker into dst, which
// must be exactly Size bytes long, and returns the stream's frames as views
// of dst: the planes of frame i are the sample bytes after its marker, each
// capped at its length so that nothing written through one reaches the
// next. Once the caller has filled them, dst holds the bytes Write would
// produce for those frames.
func (l Layout) Views(dst []byte) ([]*frame.Frame, error) {
	n, err := l.Size()
	if err != nil {
		return nil, err
	}
	if len(dst) != n {
		return nil, fmt.Errorf("y4m: laying a %d-byte stream out in %d bytes", n, len(dst))
	}
	luma, chroma := l.W*l.H, l.W*l.H/4
	at := len(appendHeader(dst[:0], l.W, l.H, l.FPS))
	views := make([]frame.Frame, l.Frames)
	frames := make([]*frame.Frame, l.Frames)
	for i := range views {
		at += copy(dst[at:], frameMarker)
		f := &views[i]
		f.W, f.H = l.W, l.H
		f.Y = dst[at : at+luma : at+luma]
		at += luma
		f.Cb = dst[at : at+chroma : at+chroma]
		at += chroma
		f.Cr = dst[at : at+chroma : at+chroma]
		at += chroma
		frames[i] = f
	}
	return frames, nil
}

// Write encodes the sequence as a Y4M stream.
func Write(w io.Writer, seq *frame.Sequence) error {
	if err := check(seq); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	var hdr [headerRoom]byte
	if _, err := bw.Write(appendHeader(hdr[:0], seq.W(), seq.H(), seq.FPS)); err != nil {
		return err
	}
	for _, f := range seq.Frames {
		if _, err := bw.WriteString(frameMarker); err != nil {
			return err
		}
		for _, plane := range [][]uint8{f.Y, f.Cb, f.Cr} {
			if _, err := bw.Write(plane); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
