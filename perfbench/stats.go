package main

import (
	"math"
	"sort"
)

// sampler keeps a uniform, bounded sample of a stream of durations (ns).
// Every stride-th value offered is kept; when the buffer is full every
// other kept value is dropped and the stride doubles, so the sample
// stays evenly spread over the whole run in fixed memory.
type sampler struct {
	buf    []int64
	stride int
	skip   int
}

func newSampler(capacity int) *sampler {
	return &sampler{buf: make([]int64, 0, capacity), stride: 1}
}

func (s *sampler) add(v int64) {
	if s.skip++; s.skip < s.stride {
		return
	}
	s.skip = 0
	if len(s.buf) == cap(s.buf) {
		n := 0
		for i := 0; i < len(s.buf); i += 2 {
			s.buf[n] = s.buf[i]
			n++
		}
		s.buf = s.buf[:n]
		s.stride *= 2
	}
	s.buf = append(s.buf, v)
}

// dist is a sorted sample with exact order statistics.
type dist struct {
	v []int64
}

// merge sorts the union of several samplers' kept values. Samplers with
// different strides are weighted by repeating each value stride/min
// times, so a busier worker counts for its share of the stream.
func merge(ss ...*sampler) dist {
	minStride := math.MaxInt
	for _, s := range ss {
		if len(s.buf) > 0 && s.stride < minStride {
			minStride = s.stride
		}
	}
	var v []int64
	for _, s := range ss {
		w := 1
		if minStride != math.MaxInt {
			w = s.stride / minStride
		}
		for _, x := range s.buf {
			for k := 0; k < w; k++ {
				v = append(v, x)
			}
		}
	}
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	return dist{v: v}
}

// n is the sample count.
func (d dist) n() int { return len(d.v) }

// q returns the q-quantile by the nearest-rank rule (0 for no samples).
func (d dist) q(q float64) float64 {
	if len(d.v) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(d.v)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(d.v[i])
}

// beyond is the number of samples strictly above the q-quantile.
func (d dist) beyond(q float64) int {
	x := d.q(q)
	return len(d.v) - sort.Search(len(d.v), func(i int) bool { return float64(d.v[i]) > x })
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
