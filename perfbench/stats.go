package main

import (
	"math"
	"math/bits"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// epoch anchors every wall-clock stamp the benchmark takes: time.Since
// reads the monotonic clock, so stamps compare across goroutines.
var epoch = time.Now()

// mono returns nanoseconds since epoch on the monotonic clock.
func mono() int64 { return int64(time.Since(epoch)) }

// quantile returns the q-quantile of sorted xs by linear interpolation
// (0 for an empty slice).
func quantile[T int64 | float64](sorted []T, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	return float64(sorted[lo]) + float64(sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// median sorts a copy of xs and returns its middle value.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return quantile(s, 0.5)
}

// int64Quantiles sorts xs in place and returns the requested quantiles.
func int64Quantiles(xs []int64, qs ...float64) []float64 {
	slices.Sort(xs)
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = quantile(xs, q)
	}
	return out
}

// ratio divides, returning 0 when the base is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// latHist is a log-linear histogram of nanosecond latencies with
// histSub buckets per power of two: values below histSub are exact, and a
// quantile is otherwise within 1/(2·histSub) of the value it stands for.
// It keeps the memory a run spends on its own bookkeeping fixed (29 KiB),
// however many deliveries it records.
type latHist struct {
	n uint64
	b [(64 - histBits) * histSub]uint64
}

const (
	histBits = 6
	histSub  = 1 << histBits
)

func (h *latHist) add(v int64) {
	h.n++
	h.b[histIndex(v)]++
}

func histIndex(v int64) int {
	if v < histSub {
		return int(max(v, 0))
	}
	shift := bits.Len64(uint64(v)) - histBits - 1
	return (shift+1)*histSub + int(uint64(v)>>shift) - histSub
}

// histMid is the middle of bucket i's value range.
func histMid(i int) float64 {
	if i < histSub {
		return float64(i)
	}
	shift := i/histSub - 1
	low := uint64(i%histSub+histSub) << shift
	return float64(low) + float64(uint64(1)<<shift-1)/2
}

func (h *latHist) merge(o *latHist) {
	h.n += o.n
	for i, c := range o.b {
		h.b[i] += c
	}
}

// quantile returns the middle of the bucket holding the q-quantile's
// sample (0 for an empty histogram).
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n-1))
	var seen uint64
	for i, c := range h.b {
		seen += c
		if seen > rank {
			return histMid(i)
		}
	}
	return histMid(len(h.b) - 1)
}

// usage is one getrusage(RUSAGE_SELF) reading.
type usage struct {
	cpuNS int64 // user + system
	rssKB int64 // peak resident set, KiB
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // cannot fail for RUSAGE_SELF
	}
	return usage{
		cpuNS: ru.Utime.Nano() + ru.Stime.Nano(),
		rssKB: ru.Maxrss,
	}
}

// threadCPU returns the calling OS thread's user+system CPU time; callers
// pin their goroutine with runtime.LockOSThread first.
func threadCPU() int64 {
	const rusageThread = 1 // RUSAGE_THREAD (Linux)
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// rtSample reads the Go runtime counters the per-layer report uses.
type rtSample struct {
	allocs          uint64  // cumulative heap objects allocated
	gcCPU, totalCPU float64 // runtime-estimated CPU seconds
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var out rtSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		out.allocs = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		out.totalCPU = s[2].Value.Float64()
	}
	return out
}

// splitmix64 is a stateless mixer: a seeded, order-independent source of
// per-(packet, node) decisions.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit maps a mixed 64-bit value to [0, 1).
func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// bitset records delivered sequence numbers.
type bitset []uint64

func (b *bitset) set(i uint64) (was bool) {
	w := i / 64
	for uint64(len(*b)) <= w {
		*b = append(*b, 0)
	}
	m := uint64(1) << (i % 64)
	was = (*b)[w]&m != 0
	(*b)[w] |= m
	return was
}

func (b bitset) has(i uint64) bool {
	w := i / 64
	return w < uint64(len(b)) && b[w]&(1<<(i%64)) != 0
}
