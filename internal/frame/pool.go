package frame

import "sync"

// Encoding allocates one full reconstructed frame per coded frame — three
// plane buffers that live exactly as long as the Encode call — and a decode
// one per decoded frame, which a damaged round trip measures and drops.
// Pooling them takes the per-frame plane churn out of the GC's hands; pools
// are keyed by frame geometry so mixed-size workloads never hand a frame the
// wrong buffers. The chunk server allocates no planes at all: it decodes into
// frames whose planes are its response buffer.

var (
	framePoolsMu sync.RWMutex
	framePools   = map[[2]int]*sync.Pool{} // {w, h} -> pool of *Frame
)

// poolFor returns the pool of w×h frames, creating it on first use. The
// lookup allocates nothing: it runs once per decoded frame.
func poolFor(w, h int) *sync.Pool {
	key := [2]int{w, h}
	framePoolsMu.RLock()
	p := framePools[key]
	framePoolsMu.RUnlock()
	if p != nil {
		return p
	}
	framePoolsMu.Lock()
	defer framePoolsMu.Unlock()
	if p = framePools[key]; p == nil {
		p = new(sync.Pool)
		framePools[key] = p
	}
	return p
}

// Scratch returns a w×h frame, a recycled one when its geometry's pool has
// one. Its samples are unspecified — the recycled frame's old ones — so it
// is for a caller that writes every sample before reading it (the encoder's
// reconstruction, the decoder's output). It panics on invalid dimensions.
func Scratch(w, h int) *Frame {
	if f, ok := poolFor(w, h).Get().(*Frame); ok {
		return f
	}
	return MustNew(w, h)
}

// Recycle returns a frame to its geometry's pool for reuse by Scratch. The
// caller must not touch the frame afterwards. nil is ignored.
func Recycle(f *Frame) {
	if f == nil {
		return
	}
	poolFor(f.W, f.H).Put(f)
}
