// Package faultio is a deterministic fault-injection layer for the archive
// read path: a storage-backend decorator that injects the paper's §5 error
// classes — persistent bit flips in stored data, transient device errors,
// short reads, and access latency — as a pure function of a seed and the
// read sequence, so every test, benchmark and chaos run that replays the
// same reads against the same seed sees the identical fault sequence.
//
// The decorator composes with any backend: Wrap takes the full Backend
// surface (ReadAt/WriteAt/Close — structurally identical to store.Backend,
// declared locally so this package stays dependency-free) and returns a
// Reader that is itself a Backend, faulting reads while passing writes and
// lifecycle through untouched.
//
// Fault decisions are drawn from a splitmix64 hash of (seed, offset,
// length[, attempt]):
//
//   - corruption is keyed by (offset, length) alone, so a damaged range is
//     damaged on every read — retrying never repairs it, exactly like a
//     stuck cell whose drift exceeded the ECC budget (§5.1). The flipped
//     bit position is drawn from the same hash, so the damage is stable.
//   - transient errors and short reads are additionally keyed by a
//     per-(offset, length) attempt counter, so a retry of the same read
//     draws a fresh decision and eventually succeeds — the signature of a
//     bus glitch or a busy device, not of lost data.
//   - latency is a deterministic per-read fraction of Profile.Latency.
//
// The wrapper records every injected fault in an order-preserving log and
// per-class counters; Faults returns a sorted copy so that two runs of the
// same workload can be compared even when concurrency reorders the reads.
package faultio

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the sentinel wrapped by every transient fault this package
// injects (transient errors and short reads). Callers classify injected
// faults with errors.Is; corruption is silent by design — it surfaces only
// through checksum verification downstream.
var ErrInjected = errors.New("injected I/O fault")

// Backend is the storage surface this package decorates. It is structurally
// identical to store.Backend — declared here, not imported, so faultio
// depends on nothing and any store backend (file, memory, snapshot, or
// another decorator) satisfies it as-is.
type Backend interface {
	io.ReaderAt
	io.WriterAt
	Close() error
}

// Profile configures the injected fault mix. The zero value injects
// nothing and passes every read through untouched.
type Profile struct {
	// Seed drives every fault decision. Two readers with the same seed and
	// the same read sequence inject the identical fault sequence.
	Seed int64
	// TransientRate is the per-attempt probability in [0,1] that a read
	// fails with a transient error (ErrInjected). A retry of the same read
	// draws a fresh decision.
	TransientRate float64
	// CorruptRate is the per-(offset, length) probability in [0,1] that a
	// read range carries a persistent single-bit flip. The same range is
	// corrupted (at the same bit) on every read.
	CorruptRate float64
	// ShortRate is the per-attempt probability in [0,1] that a read
	// returns only half its bytes alongside ErrInjected.
	ShortRate float64
	// Latency is the maximum injected delay per read; the actual delay is
	// a deterministic per-read fraction of it. Zero injects none.
	Latency time.Duration
}

// ParseProfile parses a CLI fault-profile spec of comma-separated
// key=value pairs:
//
//	seed=7,transient=0.01,corrupt=0.001,short=0.005,latency=200us
//
// Unknown keys, malformed values and rates outside [0,1] are errors. The
// empty string parses to the zero Profile.
func ParseProfile(spec string) (Profile, error) {
	var p Profile
	if spec == "" {
		return p, nil
	}
	for _, field := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return Profile{}, fmt.Errorf("faultio: field %q is not key=value", field)
		}
		var err error
		switch key {
		case "seed":
			p.Seed, err = strconv.ParseInt(val, 10, 64)
		case "transient":
			p.TransientRate, err = parseRate(val)
		case "corrupt":
			p.CorruptRate, err = parseRate(val)
		case "short":
			p.ShortRate, err = parseRate(val)
		case "latency":
			p.Latency, err = time.ParseDuration(val)
			if err == nil && p.Latency < 0 {
				err = fmt.Errorf("negative latency")
			}
		default:
			return Profile{}, fmt.Errorf("faultio: unknown profile key %q (want seed, transient, corrupt, short, latency)", key)
		}
		if err != nil {
			return Profile{}, fmt.Errorf("faultio: bad %s=%q: %v", key, val, err)
		}
	}
	return p, nil
}

func parseRate(val string) (float64, error) {
	r, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return 0, err
	}
	if r < 0 || r > 1 || math.IsNaN(r) {
		return 0, fmt.Errorf("rate %v outside [0,1]", r)
	}
	return r, nil
}

// Fault describes one injected fault.
type Fault struct {
	// Class is "transient", "short" or "corrupt".
	Class string
	// Off and Len identify the read range the fault was injected into.
	Off int64
	Len int
	// Attempt is the 1-based count of reads of this (Off, Len) range at
	// injection time; corruption, being attempt-independent, records the
	// attempt it was observed on.
	Attempt uint64
}

// String renders the fault as a stable, comparable token.
func (f Fault) String() string {
	return fmt.Sprintf("%s@%d+%d#%d", f.Class, f.Off, f.Len, f.Attempt)
}

// Stats are the per-class fault counters of a Reader.
type Stats struct {
	// Reads counts ReadAt calls.
	Reads int64
	// Transient, Short and Corrupt count injected faults by class.
	Transient, Short, Corrupt int64
}

// Reader wraps a storage backend with deterministic fault injection. It is
// safe for concurrent use and is itself a Backend: reads are faulted, while
// writes and Close pass through unfaulted (so scrub repairs reach the
// backing store and lifecycle stays with the decorated backend).
type Reader struct {
	b    Backend
	prof Profile

	mu       sync.Mutex
	attempts map[[2]int64]uint64
	log      []Fault

	reads     atomic.Int64
	transient atomic.Int64
	short     atomic.Int64
	corrupt   atomic.Int64
}

// Wrap decorates a full storage backend with fault injection under prof.
// The returned Reader satisfies Backend (and, structurally, store.Backend),
// so a faulted file, memory region or snapshot drops into any place a clean
// backend goes — an archive open, a serving catalog entry, a scrub pass.
func Wrap(b Backend, prof Profile) *Reader {
	return &Reader{b: b, prof: prof, attempts: map[[2]int64]uint64{}}
}

// splitmix64 is the standard splitmix64 finalizer: a bijective avalanche
// mix whose output bits are uniform enough to derive probabilities from.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draw derives a uniform [0,1) variate for one fault class of one read.
// class decorrelates the streams; attempt is 0 for attempt-independent
// (persistent) decisions.
func (f *Reader) draw(off int64, n int, class uint64, attempt uint64) (float64, uint64) {
	h := splitmix64(uint64(f.prof.Seed) ^ splitmix64(uint64(off)*0x9e3779b97f4a7c15+uint64(n)))
	h = splitmix64(h ^ class*0xd1342543de82ef95 ^ attempt*0xaf251af3b0f025b5)
	return float64(h>>11) / (1 << 53), h
}

// record logs one injected fault and bumps its class counter.
func (f *Reader) record(ctr *atomic.Int64, fault Fault) {
	ctr.Add(1)
	f.mu.Lock()
	f.log = append(f.log, fault)
	f.mu.Unlock()
}

// ReadAt implements io.ReaderAt with fault injection. Transient failures
// and short reads wrap ErrInjected; corrupted ranges return nil error with
// a flipped bit, exactly as a damaged substrate would.
func (f *Reader) ReadAt(p []byte, off int64) (int, error) {
	f.reads.Add(1)
	key := [2]int64{off, int64(len(p))}
	f.mu.Lock()
	f.attempts[key]++
	attempt := f.attempts[key]
	f.mu.Unlock()

	if f.prof.Latency > 0 {
		frac, _ := f.draw(off, len(p), 4, attempt)
		time.Sleep(time.Duration(float64(f.prof.Latency) * frac))
	}
	if u, _ := f.draw(off, len(p), 1, attempt); u < f.prof.TransientRate {
		f.record(&f.transient, Fault{Class: "transient", Off: off, Len: len(p), Attempt: attempt})
		return 0, fmt.Errorf("faultio: transient read error at %d+%d: %w", off, len(p), ErrInjected)
	}
	if u, _ := f.draw(off, len(p), 2, attempt); u < f.prof.ShortRate && len(p) > 1 {
		f.record(&f.short, Fault{Class: "short", Off: off, Len: len(p), Attempt: attempt})
		n, err := f.b.ReadAt(p[:len(p)/2], off)
		if err != nil {
			return n, err
		}
		return n, fmt.Errorf("faultio: short read %d of %d at %d: %w", n, len(p), off, ErrInjected)
	}
	n, err := f.b.ReadAt(p, off)
	if err != nil || n == 0 {
		return n, err
	}
	if u, h := f.draw(off, len(p), 3, 0); u < f.prof.CorruptRate {
		bit := splitmix64(h) % uint64(n*8)
		p[bit/8] ^= 1 << (bit % 8)
		f.record(&f.corrupt, Fault{Class: "corrupt", Off: off, Len: len(p), Attempt: attempt})
	}
	return n, err
}

// WriteAt passes writes through to the decorated backend: repairs are
// never faulted.
func (f *Reader) WriteAt(p []byte, off int64) (int, error) { return f.b.WriteAt(p, off) }

// Close closes the decorated backend. Lifecycle is pass-through: closing
// the decorator closes the medium.
func (f *Reader) Close() error { return f.b.Close() }

// Stats returns the current fault counters.
func (f *Reader) Stats() Stats {
	return Stats{
		Reads:     f.reads.Load(),
		Transient: f.transient.Load(),
		Short:     f.short.Load(),
		Corrupt:   f.corrupt.Load(),
	}
}

// Faults returns a copy of the fault log sorted into a canonical order
// (class, offset, length, attempt), so two runs of the same workload
// compare equal even when concurrency reordered their reads. A sequential
// workload's log is already in injection order before sorting.
func (f *Reader) Faults() []Fault {
	f.mu.Lock()
	out := append([]Fault(nil), f.log...)
	f.mu.Unlock()
	sortFaults(out)
	return out
}

func sortFaults(fs []Fault) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		if a.Off != b.Off {
			return a.Off < b.Off
		}
		if a.Len != b.Len {
			return a.Len < b.Len
		}
		return a.Attempt < b.Attempt
	})
}
