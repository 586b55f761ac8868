package main

import (
	"math"
	"sort"
	"time"
)

// Hist keeps every latency sample it is given. Percentiles are
// nearest-rank over the sorted sample, so they are exact: no bucket
// boundary can make two different runs read the same.
type Hist struct {
	ns     []int64
	sorted bool
}

// NewHist returns an empty histogram with room for capHint samples, so
// recording in a measured loop does not reallocate.
func NewHist(capHint int) *Hist { return &Hist{ns: make([]int64, 0, capHint)} }

// Add records one sample.
func (h *Hist) Add(d time.Duration) {
	h.ns = append(h.ns, int64(d))
	h.sorted = false
}

// Merge appends every sample of o.
func (h *Hist) Merge(o *Hist) {
	h.ns = append(h.ns, o.ns...)
	h.sorted = false
}

// N is the sample count.
func (h *Hist) N() int { return len(h.ns) }

// Mean is the average sample, 0 when empty.
func (h *Hist) Mean() time.Duration {
	if len(h.ns) == 0 {
		return 0
	}
	var sum int64
	for _, v := range h.ns {
		sum += v
	}
	return time.Duration(sum / int64(len(h.ns)))
}

func (h *Hist) sort() {
	if !h.sorted {
		sort.Slice(h.ns, func(i, j int) bool { return h.ns[i] < h.ns[j] })
		h.sorted = true
	}
}

// rank is the 1-based nearest rank of quantile q over n samples.
func rank(q float64, n int) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// Quantile returns the nearest-rank q-quantile (0 for an empty sample).
func (h *Hist) Quantile(q float64) time.Duration {
	if len(h.ns) == 0 {
		return 0
	}
	h.sort()
	return time.Duration(h.ns[rank(q, len(h.ns))-1])
}

// Beyond counts the samples ranked above the q-quantile: the sample
// support of that percentile.
func (h *Hist) Beyond(q float64) int {
	if len(h.ns) == 0 {
		return 0
	}
	return len(h.ns) - rank(q, len(h.ns))
}

// CountAbove counts samples strictly greater than limit.
func (h *Hist) CountAbove(limit time.Duration) int {
	n := 0
	for _, v := range h.ns {
		if v > int64(limit) {
			n++
		}
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
