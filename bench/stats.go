package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: a tail read off fewer samples is a guess, not a measurement.
const minTail = 10

// stat is one reported value. N is the sample count behind a sample
// statistic (zero for a ratio or a count); Null, when set, says why the
// value could not be computed.
type stat struct {
	Value float64
	N     int
	Null  string
}

// percentile is the nearest-rank p-th percentile of xs (p in 1..99). It
// is null, with the reason, when fewer than minTail samples lie beyond
// it.
func percentile(xs []float64, p int) stat {
	n := len(xs)
	if n == 0 {
		return stat{Null: "no samples"}
	}
	rank := (p*n + 99) / 100 // ceil(p·n/100), 1-based
	if beyond := n - rank; beyond < minTail {
		return stat{N: n, Null: fmt.Sprintf("%d of %d samples beyond p%d, need %d", beyond, n, p, minTail)}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return stat{Value: s[rank-1], N: n}
}

// ratio is num/den, null when den is zero.
func ratio(num, den float64) stat {
	if den == 0 {
		return stat{Null: "no operations"}
	}
	return stat{Value: num / den}
}

// metric is a named, unit-carrying stat.
type metric struct {
	Name string
	Unit string
	stat
}

// metricSet collects a run's metrics in the order they are added.
type metricSet struct {
	list  []metric
	index map[string]int
}

func (m *metricSet) put(name, unit string, s stat) {
	if m.index == nil {
		m.index = make(map[string]int)
	}
	if !s.null() && (math.IsNaN(s.Value) || math.IsInf(s.Value, 0)) {
		s = stat{N: s.N, Null: "not finite"}
	}
	m.index[name] = len(m.list)
	m.list = append(m.list, metric{name, unit, s})
}

func (m *metricSet) get(name string) (metric, bool) {
	i, ok := m.index[name]
	if !ok {
		return metric{}, false
	}
	return m.list[i], true
}

func (s stat) null() bool { return s.Null != "" }

// ms converts nanoseconds to milliseconds.
func ms(ns int64) float64 { return float64(ns) / 1e6 }
