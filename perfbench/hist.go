package main

import "math/bits"

// histSub is the number of buckets each power of two is split into, so
// a recorded value is kept to within 1/histSub of itself.
const (
	histSubBits = 8
	histSub     = 1 << histSubBits
	// histOctaves covers values below 2^(histOctaves+histSubBits-1) ns,
	// about 6.5 days; larger values land in the last bucket.
	histOctaves = 42
)

// hist is a log-linear histogram of nanosecond durations: values below
// histSub are exact, larger ones are kept to within 0.4%.  Its size is
// fixed when it is made, so recording never allocates and the heap the
// benchmark adds does not grow while the stack is measured.
type hist struct {
	counts [histOctaves * histSub]uint32
	n      int64
}

func bucketOf(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - histSubBits - 1 // v>>e is in [histSub, 2*histSub)
	i := (e+1)*histSub + int(v>>e) - histSub
	if i >= len(hist{}.counts) {
		return len(hist{}.counts) - 1
	}
	return i
}

// valueOf is the midpoint of bucket i.
func valueOf(i int) float64 {
	if i < histSub {
		return float64(i)
	}
	e := i/histSub - 1
	m := int64(i%histSub + histSub)
	return float64(m<<e) + float64(int64(1)<<e)/2
}

func (h *hist) record(v int64) {
	h.counts[bucketOf(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile, 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(q*float64(h.n-1)) + 1
	var cum int64
	for i, c := range h.counts {
		cum += int64(c)
		if cum >= rank {
			return valueOf(i)
		}
	}
	return valueOf(len(h.counts) - 1)
}
