package entropy

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"videoapp/internal/bitio"
)

// backend is one entropy coder as the tests drive it: its production
// writer; its reader, fresh over a bitio.Reader or blank, for Reset, as the
// frame decoder keeps one; and the per-symbol oracles of its residual block
// routines — for CABAC the verbatim pre-rewrite writer and reader over the
// bit-serial coder, for CAVLC the backend's own per-symbol methods (their
// exp-Golomb primitives are pinned in internal/bitio).
type backend struct {
	name      string
	writer    func(*bitio.Writer) SymbolWriter
	fresh     func(*bitio.Reader) SymbolReader
	blank     func() resettable
	refWriter func(*bitio.Writer) symbolWriter
	refReader func(*bitio.Reader) symbolReader
}

// resettable is what the frame decoder needs of a reader it reuses.
type resettable interface {
	SymbolReader
	Reset(buf []byte)
}

var backends = []backend{
	{
		"cabac",
		func(w *bitio.Writer) SymbolWriter { return NewCABACWriter(w) },
		func(r *bitio.Reader) SymbolReader { return NewCABACReader(r) },
		func() resettable { return new(CABACReader) },
		func(w *bitio.Writer) symbolWriter { return newRefCABACWriter(w) },
		func(r *bitio.Reader) symbolReader { return newRefCABACReader(r) },
	},
	{
		"cavlc",
		func(w *bitio.Writer) SymbolWriter { return NewCAVLCWriter(w) },
		func(r *bitio.Reader) SymbolReader { return NewCAVLCReader(r) },
		func() resettable { return new(CAVLCReader) },
		func(w *bitio.Writer) symbolWriter { return NewCAVLCWriter(w) },
		func(r *bitio.Reader) symbolReader { return NewCAVLCReader(r) },
	},
}

// reader is a blank reader Reset over buf.
func (be backend) reader(buf []byte) SymbolReader {
	r := be.blank()
	r.Reset(buf)
	return r
}

// forBackends runs body once per backend, each as a subtest.
func forBackends(t *testing.T, body func(t *testing.T, be backend)) {
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) { body(t, be) })
	}
}

// symEvent is one symbol: an unsigned value, a signed value or a flag (0 or
// 1), in a syntax class.
type symEvent struct {
	kind  int // 0=uval, 1=sval, 2=flag
	class SyntaxClass
	v     int64
}

// eventsOf is n unsigned values of class, the i-th v(i).
func eventsOf(n int, class SyntaxClass, v func(i int) int64) []symEvent {
	evs := make([]symEvent, n)
	for i := range evs {
		evs[i] = symEvent{class: class, v: v(i)}
	}
	return evs
}

func randomEvents(rng *rand.Rand, n int) []symEvent {
	evs := make([]symEvent, n)
	for i := range evs {
		ev := symEvent{kind: rng.Intn(3), class: SyntaxClass(rng.Intn(int(numClasses)))}
		switch ev.kind {
		case 0:
			// Mix of small (common) and large (rare) values.
			if rng.Intn(10) == 0 {
				ev.v = int64(rng.Intn(100000))
			} else {
				ev.v = int64(rng.Intn(8))
			}
		case 1:
			ev.v = int64(rng.Intn(2001) - 1000)
		case 2:
			ev.v = int64(rng.Intn(2))
		}
		evs[i] = ev
	}
	return evs
}

// encodeEvents codes evs with be into a flushed payload.
func encodeEvents(be backend, evs []symEvent) []byte {
	w := bitio.NewWriter()
	sw := be.writer(w)
	for _, ev := range evs {
		switch ev.kind {
		case 0:
			sw.PutUVal(ev.class, uint32(ev.v))
		case 1:
			sw.PutSVal(ev.class, int32(ev.v))
		case 2:
			sw.PutFlag(ev.class, ev.v == 1)
		}
	}
	sw.Flush()
	return bytes.Clone(w.Bytes())
}

// getEvent reads the symbol of ev's kind and class from sr.
func getEvent(sr SymbolReader, ev symEvent) int64 {
	switch ev.kind {
	case 0:
		return int64(sr.GetUVal(ev.class))
	case 1:
		return int64(sr.GetSVal(ev.class))
	}
	if sr.GetFlag(ev.class) {
		return 1
	}
	return 0
}

// symbolRoundTrip: evs coded with be read back as evs from a reader that
// never flags the clean stream.
func symbolRoundTrip(be backend, evs []symEvent) error {
	sr := be.fresh(bitio.NewReader(encodeEvents(be, evs)))
	for i, ev := range evs {
		if got := getEvent(sr, ev); got != ev.v {
			return fmt.Errorf("event %d %+v: read %d", i, ev, got)
		}
	}
	if sr.Desynced() {
		return errors.New("clean stream flagged desynced")
	}
	return nil
}

func TestSymbolRoundTripBothBackends(t *testing.T) {
	forBackends(t, func(t *testing.T, be backend) {
		if err := symbolRoundTrip(be, randomEvents(rand.New(rand.NewSource(11)), 5000)); err != nil {
			t.Fatal(err)
		}
	})
}

func TestSymbolRoundTripProperty(t *testing.T) {
	forBackends(t, func(t *testing.T, be backend) {
		prop := func(seed int64, n uint8) bool {
			return symbolRoundTrip(be, randomEvents(rand.New(rand.NewSource(seed)), int(n)%64+1)) == nil
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestCABACBeatsOrMatchesCAVLCOnSkewedData(t *testing.T) {
	// CABAC's raison d'être (and why the paper accepts its fragility):
	// better compression on predictable data.
	rng := rand.New(rand.NewSource(13))
	evs := eventsOf(20000, ClassCoeffLevel, func(int) int64 { return int64(rng.Intn(3)) }) // heavily skewed small values
	if a, v := len(encodeEvents(backends[0], evs)), len(encodeEvents(backends[1], evs)); a >= v {
		t.Fatalf("CABAC %d bytes >= CAVLC %d bytes on skewed data", a, v)
	}
}

// damaged codes evs with be, damages the payload and reads every event back
// from what is left, returning how many read wrong and whether the reader
// flagged the stream. Reading must terminate, whatever the damage.
func damaged(be backend, evs []symEvent, damage func([]byte) []byte) (wrong int, desynced bool) {
	sr := be.fresh(bitio.NewReader(damage(encodeEvents(be, evs))))
	for _, ev := range evs {
		if getEvent(sr, ev) != ev.v {
			wrong++
		}
	}
	return wrong, sr.Desynced()
}

// TestCABACDesyncAfterFlip is the paper's premise (Fig. 2(c)): one early
// flipped bit corrupts much of what the arithmetic decoder reads after it.
func TestCABACDesyncAfterFlip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	evs := eventsOf(2000, ClassMVX, func(int) int64 { return int64(rng.Intn(5)) })
	if wrong, _ := damaged(backends[0], evs, func(b []byte) []byte { bitio.FlipBit(b, 30); return b }); wrong < 50 {
		t.Fatalf("only %d wrong symbols after early flip", wrong)
	}
}

// TestCAVLCDesyncFlagOnTruncation: a reader that runs out of stream flags it.
func TestCAVLCDesyncFlagOnTruncation(t *testing.T) {
	evs := eventsOf(100, ClassMVX, func(int) int64 { return 500 })
	for _, be := range backends {
		if _, desynced := damaged(be, evs, func(b []byte) []byte { return b[:3] }); !desynced {
			t.Fatalf("%s: truncated stream must flag desync", be.name)
		}
	}
}

// TestCABACReaderCapsCorruptSuffix: all-ones garbage drives the UEG suffix
// decoder into its cap; it must terminate rather than hang or overflow.
func TestCABACReaderCapsCorruptSuffix(t *testing.T) {
	evs := eventsOf(50, ClassCoeffLevel, func(int) int64 { return 0 })
	for _, be := range backends {
		damaged(be, evs, func([]byte) []byte { return bytes.Repeat([]byte{0xFF}, 64) })
	}
}

func TestBitPosMonotone(t *testing.T) {
	forBackends(t, func(t *testing.T, be backend) {
		sw := be.writer(bitio.NewWriter())
		last := sw.BitPos()
		for i := 0; i < 200; i++ {
			sw.PutUVal(ClassCBP, uint32(i%7))
			if sw.BitPos() < last {
				t.Fatal("BitPos must be monotone")
			}
			last = sw.BitPos()
		}
	})
}

// TestResetEqualsFreshReader: one reader Reset over a sequence of streams —
// clean, truncated, bit-flipped, empty — must return exactly the symbols,
// desync flags and bit positions that a freshly built reader returns for
// each, whatever state the previous stream left it in.
func TestResetEqualsFreshReader(t *testing.T) {
	forBackends(t, func(t *testing.T, be backend) {
		rng := rand.New(rand.NewSource(31))
		reused := be.blank()
		for stream := 0; stream < 40; stream++ {
			evs := randomEvents(rng, 200)
			buf := encodeEvents(be, evs)
			switch stream % 4 {
			case 1: // truncated: the reader overruns and desyncs
				buf = buf[:len(buf)/3]
			case 2: // damaged
				for i := 0; i < 5; i++ {
					buf[rng.Intn(len(buf))] ^= 1 << uint(rng.Intn(8))
				}
			case 3:
				buf = nil
			}
			fresh := be.fresh(bitio.NewReader(buf))
			reused.Reset(buf)
			for i, ev := range evs {
				a, b := getEvent(fresh, ev), getEvent(reused, ev)
				if a != b || fresh.Desynced() != reused.Desynced() || fresh.BitPos() != reused.BitPos() {
					t.Fatalf("stream %d event %d: fresh (%d, desync %v, bit %d), reset (%d, desync %v, bit %d)",
						stream, i, a, fresh.Desynced(), fresh.BitPos(), b, reused.Desynced(), reused.BitPos())
				}
			}
		}
	})
}

func TestResetDoesNotAllocate(t *testing.T) {
	buf := make([]byte, 64)
	var cr CABACReader
	var vr CAVLCReader
	if n := testing.AllocsPerRun(100, func() { cr.Reset(buf); vr.Reset(buf) }); n != 0 {
		t.Fatalf("Reset allocates %v times", n)
	}
}
