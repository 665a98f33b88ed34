package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of vs by linear interpolation between
// order statistics; q=1 is the maximum. vs is not modified.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// quartiles returns what Python's statistics.quantiles(vs, n=4) returns:
// the driver that accepts this benchmark measures spread with it, so the
// -repeat table must too. Needs at least two values.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// maxRelDev is the largest relative distance of any value from the median.
func maxRelDev(vs []float64) float64 {
	med := median(vs)
	if med == 0 {
		return 0
	}
	worst := 0.0
	for _, v := range vs {
		if d := math.Abs(v-med) / math.Abs(med); d > worst {
			worst = d
		}
	}
	return worst
}
