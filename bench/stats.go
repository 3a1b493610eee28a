package main

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first quartile, median and third quartile of xs as
// Python's statistics.quantiles(xs, n=4) computes them (the exclusive
// method), which is what the acceptance rule for run-to-run spread uses.
// It needs at least two values; with fewer all three equal the only value.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// tailPercentile picks the tail figure of a latency sample: the highest
// percentile, capped at the 99th, that still has at least ten samples
// beyond it, so the figure never rests on a handful of outliers. It never
// picks below the median. It returns the percentile used (in percent) and
// its value; sorted must be ascending and non-empty.
func tailPercentile(sorted []float64) (pct, value float64) {
	n := len(sorted)
	i := int(math.Ceil(0.99*float64(n))) - 1
	if most := n - 11; i > most {
		i = most
	}
	if mid := (n - 1) / 2; i < mid {
		i = mid
	}
	return 100 * float64(i+1) / float64(n), sorted[i]
}

// latencySummary is the median and tail of one latency sample.
type latencySummary struct {
	N         int
	P50       float64
	Tail      float64
	TailPct   float64
	Quantiles map[string]float64
}

func summarize(ms []float64) latencySummary {
	if len(ms) == 0 {
		return latencySummary{}
	}
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	pct, tail := tailPercentile(s)
	q := map[string]float64{"min": s[0], "max": s[len(s)-1], "tail": tail}
	for _, p := range []int{10, 25, 50, 75, 90, 99} {
		q[fmt.Sprintf("p%d", p)] = s[(len(s)-1)*p/100]
	}
	return latencySummary{N: len(s), P50: median(s), Tail: tail, TailPct: pct, Quantiles: q}
}

// subSeed derives an independent stream seed from the run seed with a
// SplitMix64 finalizer, so every generator of a run (item order, zipf
// draws, each client's indices, Monte-Carlo seeds) is a pure function of
// (--seed, stream).
func subSeed(seed int64, stream uint64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(stream+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Stream numbers of subSeed, one per generator.
const (
	streamOrder uint64 = iota + 1
	streamTrips
	streamKernels
	streamSample
	streamClient // + client index
)

// seededPerm is a reproducible permutation of 0..n-1.
func seededPerm(seed int64, stream uint64, n int) []int {
	return rand.New(rand.NewSource(subSeed(seed, stream))).Perm(n)
}

// zipfKeys draws popularity-skewed keys in [0, n): rank r is drawn with
// probability proportional to 1/(1+r)^s and mapped through a seeded
// permutation, so which key is hottest depends on the seed and not on its
// position in the archive.
type zipfKeys struct {
	z    *rand.Zipf
	perm []int
}

func newZipfKeys(seed int64, stream uint64, n int, s float64) *zipfKeys {
	rng := rand.New(rand.NewSource(subSeed(seed, stream)))
	return &zipfKeys{
		z:    rand.NewZipf(rng, s, 1, uint64(n-1)),
		perm: seededPerm(seed, streamOrder, n),
	}
}

func (z *zipfKeys) next() int { return z.perm[z.z.Uint64()] }

// peakRSSMB reads the process's high-water resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// canaryBursts is the length of a real run's canary: about a quarter of a
// second.
const canaryBursts = 30

// canarySink keeps the canary loop's result alive.
var canarySink uint64

// canaryMS times a fixed CPU loop that uses no code of the repository, on
// every CPU at once: a change in it between the start and the end of a run
// is the machine, not the program. It reports the median burst. All CPUs
// are kept busy because that is the state the workloads run in: with one
// CPU idle this box clocks the other about 25% faster in stretches of a
// few hundred milliseconds, and a single-threaded canary reads one speed
// or the other at random.
func canaryMS(burstsPerCPU int) float64 {
	n := runtime.GOMAXPROCS(0)
	bursts := make([]float64, n*burstsPerCPU)
	sinks := make([]uint64, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; b < burstsPerCPU; b++ {
				t0 := time.Now()
				x := uint64(0x9e3779b97f4a7c15) + uint64(g)
				for i := 0; i < 4<<20; i++ {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
				}
				sinks[g] += x
				bursts[g*burstsPerCPU+b] = msOf(time.Since(t0))
			}
		}()
	}
	wg.Wait()
	for _, x := range sinks {
		canarySink += x
	}
	return median(bursts)
}

func msOf(d time.Duration) float64 { return float64(d) / 1e6 }
func usOf(d time.Duration) float64 { return float64(d) / 1e3 }
