package main

import "math/bits"

// hist is an allocation-free log-linear latency histogram in the style
// of HdrHistogram: values below 2^subBits are counted exactly, and every
// higher power-of-two range is split into 2^(subBits-1) equal buckets,
// so a reported percentile is within 1/64 of the true sample value.
// Recording is one index computation and one increment; each connection
// reader owns one histogram and the phase merges them at the end.
type hist struct {
	counts [nBuckets]int64
	n      int64
	max    int64
}

const (
	subBits  = 7
	subCount = 1 << subBits // exact buckets [0, 128)
	subHalf  = subCount / 2 // buckets per higher power of two
	nGroups  = 64 - subBits // power-of-two groups above the exact range
	nBuckets = subCount + nGroups*subHalf
)

// bucketOf maps a non-negative value to its bucket index.
func bucketOf(v int64) int {
	if v < subCount {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	g := bits.Len64(uint64(v)) - subBits // >= 1: v in [2^(g+6), 2^(g+7))
	return subCount + (g-1)*subHalf + int(v>>g) - subHalf
}

// bucketRange returns the inclusive value range [lo, hi] of bucket b.
func bucketRange(b int) (lo, hi int64) {
	if b < subCount {
		return int64(b), int64(b)
	}
	g := (b-subCount)/subHalf + 1
	top := int64((b-subCount)%subHalf + subHalf)
	lo = top << g
	return lo, lo + (1 << g) - 1
}

func (h *hist) record(v int64) {
	h.counts[bucketOf(v)]++
	h.n++
	if v > h.max {
		h.max = v
	}
}

// recordN records n samples of value v.
func (h *hist) recordN(v, n int64) {
	if n <= 0 {
		return
	}
	h.counts[bucketOf(v)] += n
	h.n += n
	if v > h.max {
		h.max = v
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

func (h *hist) reset() { *h = hist{} }

// quantile returns the q-quantile (0 < q <= 1): the midpoint of the
// bucket holding the ceil(q*n)-th smallest sample, clamped to the
// largest recorded value. It returns 0 for an empty histogram.
func (h *hist) quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(q*float64(h.n) + 0.999999999)
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for b, c := range h.counts {
		seen += c
		if seen >= rank {
			lo, hi := bucketRange(b)
			mid := lo + (hi-lo)/2
			if mid > h.max {
				mid = h.max
			}
			return mid
		}
	}
	return h.max
}
