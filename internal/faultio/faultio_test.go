package faultio

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"
)

func backing(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i * 131)
	}
	return data
}

// replay performs a fixed deterministic read sequence and returns the
// fault log alongside the observed per-read outcomes.
func replay(t *testing.T, prof Profile, data []byte) ([]Fault, []string) {
	t.Helper()
	f := Wrap(&memFile{data: data}, prof)
	var outcomes []string
	for round := 0; round < 50; round++ {
		for off := int64(0); off+64 <= int64(len(data)); off += 64 {
			buf := make([]byte, 64)
			n, err := f.ReadAt(buf, off)
			switch {
			case errors.Is(err, ErrInjected):
				outcomes = append(outcomes, "fault")
			case err != nil:
				t.Fatalf("unexpected non-injected error: %v", err)
			case n != 64:
				t.Fatalf("clean read returned %d bytes", n)
			default:
				outcomes = append(outcomes, "ok")
			}
		}
	}
	return f.Faults(), outcomes
}

// TestDeterministicFaultSequence pins the core contract twice: the same
// seed over the same read sequence reproduces the identical fault
// sequence, and a different seed produces a different one.
func TestDeterministicFaultSequence(t *testing.T) {
	data := backing(4096)
	prof := Profile{Seed: 7, TransientRate: 0.05, CorruptRate: 0.02, ShortRate: 0.03}

	faults1, out1 := replay(t, prof, data)
	faults2, out2 := replay(t, prof, data)
	if len(faults1) == 0 {
		t.Fatal("profile injected no faults at these rates")
	}
	if len(faults1) != len(faults2) {
		t.Fatalf("replays injected %d vs %d faults", len(faults1), len(faults2))
	}
	for i := range faults1 {
		if faults1[i] != faults2[i] {
			t.Fatalf("fault %d differs between replays: %v vs %v", i, faults1[i], faults2[i])
		}
	}
	for i := range out1 {
		if out1[i] != out2[i] {
			t.Fatalf("outcome %d differs between replays: %s vs %s", i, out1[i], out2[i])
		}
	}

	prof.Seed = 8
	faults3, _ := replay(t, prof, data)
	same := len(faults3) == len(faults1)
	if same {
		for i := range faults1 {
			if faults1[i] != faults3[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced the identical fault sequence")
	}
}

// TestCorruptionIsPersistent: a corrupted range carries the same flipped
// bit on every read, and a clean range stays clean.
func TestCorruptionIsPersistent(t *testing.T) {
	data := backing(8192)
	f := Wrap(&memFile{data: data}, Profile{Seed: 3, CorruptRate: 0.3})

	var corruptOff, cleanOff = int64(-1), int64(-1)
	first := map[int64][]byte{}
	for off := int64(0); off+128 <= int64(len(data)); off += 128 {
		buf := make([]byte, 128)
		if _, err := f.ReadAt(buf, off); err != nil {
			t.Fatal(err)
		}
		first[off] = buf
		if !bytes.Equal(buf, data[off:off+128]) {
			corruptOff = off
		} else {
			cleanOff = off
		}
	}
	if corruptOff < 0 || cleanOff < 0 {
		t.Fatalf("need both corrupt and clean ranges (corrupt=%d clean=%d)", corruptOff, cleanOff)
	}
	for i := 0; i < 5; i++ {
		buf := make([]byte, 128)
		if _, err := f.ReadAt(buf, corruptOff); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, first[corruptOff]) {
			t.Fatal("corrupted range changed between reads; corruption must be persistent")
		}
		if _, err := f.ReadAt(buf, cleanOff); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, data[cleanOff:cleanOff+128]) {
			t.Fatal("clean range became corrupted on re-read")
		}
	}
	// Exactly one bit differs in the corrupt range.
	diff := 0
	for i, b := range first[corruptOff] {
		x := b ^ data[corruptOff+int64(i)]
		for ; x != 0; x &= x - 1 {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("corrupt range differs in %d bits, want exactly 1", diff)
	}
}

// TestTransientFaultsClearOnRetry: a read that fails transiently succeeds
// within a bounded number of retries, because retry decisions are drawn
// per attempt.
func TestTransientFaultsClearOnRetry(t *testing.T) {
	data := backing(1024)
	f := Wrap(&memFile{data: data}, Profile{Seed: 11, TransientRate: 0.5})
	buf := make([]byte, 256)
	sawFault := false
	for off := int64(0); off+256 <= int64(len(data)); off += 256 {
		ok := false
		for attempt := 0; attempt < 64; attempt++ {
			if _, err := f.ReadAt(buf, off); err == nil {
				ok = true
				break
			} else if !errors.Is(err, ErrInjected) {
				t.Fatalf("unexpected error class: %v", err)
			} else {
				sawFault = true
			}
		}
		if !ok {
			t.Fatalf("read at %d never succeeded in 64 attempts at rate 0.5", off)
		}
	}
	if !sawFault {
		t.Fatal("transient rate 0.5 injected nothing across the workload")
	}
}

// TestShortReadContract: short reads return partial data with ErrInjected,
// honoring the io.ReaderAt error contract.
func TestShortReadContract(t *testing.T) {
	data := backing(4096)
	f := Wrap(&memFile{data: data}, Profile{Seed: 5, ShortRate: 1})
	buf := make([]byte, 64)
	n, err := f.ReadAt(buf, 0)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("short read must wrap ErrInjected, got %v", err)
	}
	if n != 32 {
		t.Fatalf("short read returned %d bytes, want 32", n)
	}
	if !bytes.Equal(buf[:n], data[:n]) {
		t.Fatal("short read returned wrong bytes")
	}
	if s := f.Stats(); s.Short != 1 || s.Reads != 1 {
		t.Fatalf("stats %+v, want 1 short in 1 read", s)
	}
}

// TestZeroProfilePassesThrough: the zero profile is a transparent wrapper.
func TestZeroProfilePassesThrough(t *testing.T) {
	data := backing(2048)
	f := Wrap(&memFile{data: data}, Profile{})
	buf := make([]byte, len(data))
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("zero profile altered the data")
	}
	if _, err := f.ReadAt(buf[:16], int64(len(data))); err != io.EOF && !errors.Is(err, io.EOF) {
		t.Fatalf("EOF must pass through, got %v", err)
	}
	if s := f.Stats(); s.Transient+s.Short+s.Corrupt != 0 {
		t.Fatalf("zero profile injected faults: %+v", s)
	}
}

func TestParseProfile(t *testing.T) {
	p, err := ParseProfile("seed=7,transient=0.01,corrupt=0.001,short=0.005,latency=200us")
	if err != nil {
		t.Fatal(err)
	}
	want := Profile{Seed: 7, TransientRate: 0.01, CorruptRate: 0.001, ShortRate: 0.005, Latency: 200 * time.Microsecond}
	if p != want {
		t.Fatalf("parsed %+v, want %+v", p, want)
	}
	if p, err := ParseProfile(""); err != nil || p != (Profile{}) {
		t.Fatalf("empty spec: %+v, %v", p, err)
	}
	for _, bad := range []string{"transient=2", "corrupt=-1", "wat=1", "seed", "latency=-1s", "transient=x"} {
		if _, err := ParseProfile(bad); err == nil {
			t.Fatalf("spec %q must be rejected", bad)
		}
	}
}

// TestWriteAtPassthrough: writes reach the backing store unfaulted, and its
// write errors come back as they are.
func TestWriteAtPassthrough(t *testing.T) {
	mem := &memFile{data: backing(128)}
	f := Wrap(mem, Profile{Seed: 1, CorruptRate: 1})
	if _, err := f.WriteAt([]byte{1, 2, 3}, 5); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mem.data[5:8], []byte{1, 2, 3}) {
		t.Fatal("write did not reach the backing store")
	}
	if _, err := f.WriteAt([]byte{1}, 128); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("a write the backing store refuses reported %v, want its own error", err)
	}
}

// TestWrapIsABackendDecorator: Wrap composes over a full backend — reads
// are faulted while writes and Close pass straight through, and the
// decorated Reader satisfies Backend itself so decorators stack.
func TestWrapIsABackendDecorator(t *testing.T) {
	mem := &memFile{data: backing(4096)}
	f := Wrap(mem, Profile{Seed: 3, CorruptRate: 0.3})
	var _ Backend = f

	sawCorrupt := false
	for off := int64(0); off+128 <= 4096; off += 128 {
		buf := make([]byte, 128)
		if _, err := f.ReadAt(buf, off); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, mem.data[off:off+128]) {
			sawCorrupt = true
		}
	}
	if !sawCorrupt {
		t.Fatal("decorated backend injected no corruption at rate 0.3")
	}
	if _, err := f.WriteAt([]byte{9}, 0); err != nil {
		t.Fatal(err)
	}
	if mem.data[0] != 9 {
		t.Fatal("write did not reach the decorated backend")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if !mem.closed {
		t.Fatal("Close did not reach the decorated backend")
	}

	// Decorators stack: a Reader over a Reader is still a Backend.
	inner := &memFile{data: backing(64)}
	stacked := Wrap(Wrap(inner, Profile{}), Profile{})
	buf := make([]byte, 64)
	if _, err := stacked.ReadAt(buf, 0); err != nil || !bytes.Equal(buf, inner.data) {
		t.Fatalf("stacked zero-profile read differs from the backing bytes (err %v)", err)
	}
	if err := stacked.Close(); err != nil || !inner.closed {
		t.Fatalf("stacked Close did not reach the medium (err %v)", err)
	}
}

// memFile is a tiny in-memory backend (ReaderAt+WriterAt+Close).
type memFile struct {
	data   []byte
	closed bool
}

func (m *memFile) Close() error {
	m.closed = true
	return nil
}

func (m *memFile) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(m.data)) {
		return 0, io.EOF
	}
	n := copy(p, m.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (m *memFile) WriteAt(p []byte, off int64) (int, error) {
	if off+int64(len(p)) > int64(len(m.data)) {
		return 0, io.ErrShortWrite
	}
	return copy(m.data[off:], p), nil
}
