package entropy

import (
	"math/rand"
	"testing"

	"videoapp/internal/bitio"
)

// resettable is what the frame decoder needs of a reader it reuses.
type resettable interface {
	SymbolReader
	Reset(buf []byte)
}

// TestResetEqualsFreshReader: one reader Reset over a sequence of streams —
// clean, truncated, bit-flipped, empty — must return exactly the symbols,
// desync flags and bit positions that a freshly built reader returns for
// each, whatever state the previous stream left it in.
func TestResetEqualsFreshReader(t *testing.T) {
	for name, be := range backends() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(31))
			var reused resettable = new(CABACReader)
			if name == "cavlc" {
				reused = new(CAVLCReader)
			}
			for stream := 0; stream < 40; stream++ {
				evs := randomEvents(rng, 200)
				w := bitio.NewWriter()
				sw := be.newW(w)
				for _, ev := range evs {
					switch ev.kind {
					case 0:
						sw.PutUVal(ev.class, ev.uval)
					case 1:
						sw.PutSVal(ev.class, ev.sval)
					case 2:
						sw.PutFlag(ev.class, ev.flag)
					}
				}
				sw.Flush()
				buf := append([]byte(nil), w.Bytes()...)
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
				fresh := be.newR(bitio.NewReader(buf))
				reused.Reset(buf)
				for i, ev := range evs {
					var a, b int64
					switch ev.kind {
					case 0:
						a, b = int64(fresh.GetUVal(ev.class)), int64(reused.GetUVal(ev.class))
					case 1:
						a, b = int64(fresh.GetSVal(ev.class)), int64(reused.GetSVal(ev.class))
					case 2:
						if fresh.GetFlag(ev.class) {
							a = 1
						}
						if reused.GetFlag(ev.class) {
							b = 1
						}
					}
					if a != b || fresh.Desynced() != reused.Desynced() || fresh.BitPos() != reused.BitPos() {
						t.Fatalf("stream %d event %d: fresh (%d, desync %v, bit %d), reset (%d, desync %v, bit %d)",
							stream, i, a, fresh.Desynced(), fresh.BitPos(), b, reused.Desynced(), reused.BitPos())
					}
				}
			}
		})
	}
}

func TestResetDoesNotAllocate(t *testing.T) {
	buf := make([]byte, 64)
	var cr CABACReader
	var vr CAVLCReader
	if n := testing.AllocsPerRun(100, func() { cr.Reset(buf); vr.Reset(buf) }); n != 0 {
		t.Fatalf("Reset allocates %v times", n)
	}
}
