package store

import (
	"context"
	"time"
)

// FaultPolicy is the single knob set of the fault-tolerant read path: how
// archive reads retry, how they back off, and when the serving layer's
// circuit breaker opens. The zero value selects every documented default.
//
// A policy is an open-time property of a ChunkArchive: the WithFaultPolicy
// archive option is the one way to set it, it is resolved once at open, and
// every read and scrub of that archive runs under it.
type FaultPolicy struct {
	// MaxRetries bounds the extra read attempts after the first failure
	// of one region read (transient I/O error or checksum mismatch).
	// 0 selects 2; negative disables retries.
	MaxRetries int
	// RetryBackoff is the base delay before the first retry; each further
	// retry doubles it, and a deterministic jitter in [0.5, 1.0) of the
	// doubled value is applied so stampeding readers decorrelate.
	// <= 0 selects 500µs.
	RetryBackoff time.Duration
	// MaxBackoff caps the per-retry delay. <= 0 selects 50ms.
	MaxBackoff time.Duration
	// BreakerThreshold is the number of consecutive hard read failures
	// (retries exhausted, mirror exhausted) after which the serving
	// layer's circuit breaker opens and sheds chunk requests with
	// 503 + Retry-After. 0 selects 8; negative disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before letting
	// requests probe the read path again; it is also the Retry-After
	// value advertised while shedding. <= 0 selects 1s.
	BreakerCooldown time.Duration
}

// Resolved returns the policy with zero fields replaced by their
// documented defaults — the form the read path and the serving layer's
// circuit breaker actually run under. Negative MaxRetries resolves to 0
// (retries off); a negative BreakerThreshold is preserved (breaker off).
// Resolve a policy once: a second pass would read the resolved "retries
// off" as "unset".
func (p FaultPolicy) Resolved() FaultPolicy {
	if p.MaxRetries == 0 {
		p.MaxRetries = 2
	}
	if p.MaxRetries < 0 {
		p.MaxRetries = 0
	}
	if p.RetryBackoff <= 0 {
		p.RetryBackoff = 500 * time.Microsecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 50 * time.Millisecond
	}
	if p.BreakerThreshold == 0 {
		p.BreakerThreshold = 8
	}
	if p.BreakerCooldown <= 0 {
		p.BreakerCooldown = time.Second
	}
	return p
}

// backoff returns the delay before retry attempt (1-based), exponential
// with a deterministic jitter derived from the read offset — two readers
// retrying different regions decorrelate, while the same retry of the
// same region reproduces the same delay.
func (p FaultPolicy) backoff(off int64, attempt int) time.Duration {
	d := p.RetryBackoff << (attempt - 1)
	if d <= 0 || d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	h := uint64(off)*0x9e3779b97f4a7c15 + uint64(attempt)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	frac := float64(h>>11) / (1 << 53)
	return d/2 + time.Duration(float64(d/2)*frac)
}

// sleepBackoff waits for the attempt's backoff delay or until ctx ends,
// returning ctx.Err() in the latter case.
func sleepBackoff(ctx context.Context, p FaultPolicy, off int64, attempt int) error {
	t := time.NewTimer(p.backoff(off, attempt))
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
