package main

import (
	"fmt"
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the same
// "exclusive" method as Python's statistics.quantiles(xs, n=4), so spreads
// computed here agree with any Python-side analysis. It needs at least two
// values.
func quartiles(xs []float64) (q1, q3 float64, err error) {
	if len(xs) < 2 {
		return 0, 0, fmt.Errorf("quartiles need at least 2 values, have %d", len(xs))
	}
	s := sorted(xs)
	ld := len(s)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3), nil
}

// spread is the interquartile distance of xs as a share of its median —
// the run-to-run noise figure every end-to-end bound is compared against.
func spread(xs []float64) (float64, error) {
	q1, q3, err := quartiles(xs)
	if err != nil {
		return 0, err
	}
	med := median(xs)
	if med == 0 {
		return 0, fmt.Errorf("spread of values with median 0")
	}
	return (q3 - q1) / math.Abs(med), nil
}

// percentile returns the nearest-rank p-th percentile of xs together with
// the number of samples strictly beyond that rank. A tail percentile is only
// meaningful with enough samples beyond it (the benchmark requires ten).
func percentile(xs []float64, p float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1], len(s) - rank
}

// geomean returns the geometric mean of positive xs (0 if any is not
// positive or xs is empty).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// span is one timed call into a layer, recorded by the benchmark around a
// public function. Times are nanoseconds since the trace started; Parent is
// the ID of the enclosing span (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// selfTimes returns, per span name, the summed self time in nanoseconds: each
// span's duration minus the part of its interval covered by its children.
// Children may overlap (concurrent workers under one parent); the covered
// part is their union clipped to the parent, so overlap is not subtracted
// twice.
func selfTimes(spans []span) map[string]int64 {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]int64{}
	for _, s := range spans {
		out[s.Name] += (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	iv := append([][2]int64(nil), ivs...)
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	for i := 0; i < len(iv); {
		a, b := iv[i][0], iv[i][1]
		for i++; i < len(iv) && iv[i][0] <= b; i++ {
			b = max(b, iv[i][1])
		}
		if a, b = max(a, lo), min(b, hi); b > a {
			total += b - a
		}
	}
	return total
}

// tiers is the /v1/stats tier breakdown of cache-routed evaluate requests.
type tiers struct {
	Memory    int64 `json:"memory"`
	Disk      int64 `json:"disk"`
	Coalesced int64 `json:"coalesced"`
	Computed  int64 `json:"computed"`
}

func (t tiers) sub(u tiers) tiers {
	return tiers{t.Memory - u.Memory, t.Disk - u.Disk, t.Coalesced - u.Coalesced, t.Computed - u.Computed}
}

func (t tiers) add(u tiers) tiers {
	return tiers{t.Memory + u.Memory, t.Disk + u.Disk, t.Coalesced + u.Coalesced, t.Computed + u.Computed}
}

// checkTiers verifies a phase's tier delta: the four tiers sum to the
// requests routed during the phase, and every one was answered by the
// expected tier ("memory", "disk", "coalesced" or "computed").
func checkTiers(delta tiers, routed int64, expect string) error {
	if sum := delta.Memory + delta.Disk + delta.Coalesced + delta.Computed; sum != routed {
		return fmt.Errorf("tiers %+v sum to %d, want %d routed requests", delta, sum, routed)
	}
	got := map[string]int64{"memory": delta.Memory, "disk": delta.Disk, "coalesced": delta.Coalesced, "computed": delta.Computed}
	n, ok := got[expect]
	if !ok {
		return fmt.Errorf("unknown tier %q", expect)
	}
	if n != routed {
		return fmt.Errorf("tiers %+v: want all %d requests answered by %s", delta, routed, expect)
	}
	return nil
}
