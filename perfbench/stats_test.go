package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"prophet"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
	} {
		q1, q3, err := quartiles(c.xs)
		if err != nil || !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v", c.xs, q1, q3, err, c.q1, c.q3)
		}
	}
	if _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value: want an error")
	}
}

func TestSpread(t *testing.T) {
	got, err := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if err != nil || !near(got, (8.25-2.75)/5.5) {
		t.Errorf("spread = %v, %v; want %v", got, err, (8.25-2.75)/5.5)
	}
	if _, err := spread([]float64{0, 0, 0}); err == nil {
		t.Error("spread with median 0: want an error")
	}
}

func TestPercentileCountsSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, unsorted
	}
	for _, c := range []struct {
		p      float64
		value  float64
		beyond int
	}{
		{50, 500, 500},
		{99, 990, 10},
		{100, 1000, 0},
		{0, 1, 999},
	} {
		v, beyond := percentile(xs, c.p)
		if v != c.value || beyond != c.beyond {
			t.Errorf("percentile(1..1000, %v) = %v, %d beyond; want %v, %d", c.p, v, beyond, c.value, c.beyond)
		}
	}
	// Too few samples for a p99 with ten beyond it.
	if _, beyond := percentile(xs[:500], 99); beyond >= 10 {
		t.Errorf("500 samples: %d beyond p99, want fewer than 10", beyond)
	}
	if v, beyond := percentile(nil, 99); v != 0 || beyond != 0 {
		t.Errorf("percentile(nil) = %v, %d", v, beyond)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 4}); !near(got, 2) {
		t.Errorf("geomean(1, 4) = %v, want 2", got)
	}
	if got := geomean([]float64{2, 0}); got != 0 {
		t.Errorf("geomean with a zero = %v, want 0", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "job", Start: 0, End: 100},
		// Two concurrent children overlapping on [30, 40]: the parent's
		// covered part is their union [10, 60], 50 long.
		{ID: 2, Parent: 1, Name: "stage", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "stage", Start: 30, End: 60},
		// A grandchild only reduces its own parent's self time.
		{ID: 4, Parent: 3, Name: "inner", Start: 35, End: 45},
		// A child running past its parent is clipped to the parent.
		{ID: 5, Parent: 0, Name: "job", Start: 200, End: 210},
		{ID: 6, Parent: 5, Name: "stage", Start: 205, End: 230},
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"job":   (100 - 50) + (10 - 5),
		"stage": 30 + (30 - 10) + 25,
		"inner": 10,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
	}
}

func TestTracerRecordsNestedSpans(t *testing.T) {
	tr := newTracer()
	outer := tr.begin("outer", 0)
	inner := tr.begin("inner", outer)
	tr.end(inner)
	tr.end(outer)
	if len(tr.spans) != 2 || tr.spans[1].Parent != outer || tr.spans[0].End < tr.spans[1].End {
		t.Fatalf("spans = %+v", tr.spans)
	}
	var none *tracer
	if id := none.begin("x", 0); id != 0 || none.end(id) != 0 {
		t.Error("a nil tracer must record nothing")
	}
}

func TestCheckTiers(t *testing.T) {
	for _, c := range []struct {
		delta  tiers
		routed int64
		expect string
		err    string
	}{
		{tiers{Memory: 20}, 20, "memory", ""},
		{tiers{Disk: 20}, 20, "disk", ""},
		{tiers{}, 0, "computed", ""},
		{tiers{Memory: 19, Disk: 1}, 20, "memory", "answered by memory"},
		{tiers{Memory: 19}, 20, "memory", "sum to 19"},
		{tiers{Memory: 10, Coalesced: 11}, 20, "memory", "sum to 21"},
		{tiers{Memory: 20}, 20, "lru", "unknown tier"},
	} {
		err := checkTiers(c.delta, c.routed, c.expect)
		if c.err == "" && err != nil {
			t.Errorf("checkTiers(%+v, %d, %s) = %v, want nil", c.delta, c.routed, c.expect, err)
		}
		if c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)) {
			t.Errorf("checkTiers(%+v, %d, %s) = %v, want an error with %q", c.delta, c.routed, c.expect, err, c.err)
		}
	}
	a, b := tiers{Memory: 5, Disk: 3, Coalesced: 2, Computed: 1}, tiers{Memory: 1, Disk: 1, Coalesced: 1, Computed: 1}
	if got := a.sub(b).add(b); got != a {
		t.Errorf("sub then add = %+v, want %+v", got, a)
	}
}

func TestDigestIgnoresOrderAndEmptyMeta(t *testing.T) {
	a := row{Workload: "mcf", Scheme: "triage", Stats: prophet.RunStats{IPC: 1.5}}
	b := row{Workload: "mcf", Scheme: "prophet", Stats: prophet.RunStats{IPC: 2}, Meta: map[string]int{"hints": 3}}
	if digest([]row{a, b}) != digest([]row{b, a}) {
		t.Error("digest depends on row order")
	}
	a2 := a
	a2.Meta = map[string]int{}
	if digest([]row{a, b}) != digest([]row{a2, b}) {
		t.Error("digest tells a nil meta from an empty one")
	}
	b2 := b
	b2.Stats.IPC = 2.0000001
	if digest([]row{a, b}) == digest([]row{a, b2}) {
		t.Error("digest misses a changed IPC")
	}
}

// BENCHMARK.json at the repository root lists the metrics this program
// reports; the two must not drift apart.
func TestBenchmarkJSONListsReportedMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var doc struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got, want []metricDef
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer()}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s lists %d metrics, the program reports %d", c.name, len(c.got), len(c.want))
			continue
		}
		for i := range c.want {
			if c.got[i] != c.want[i] {
				t.Errorf("%s[%d] = %+v, the program reports %+v", c.name, i, c.got[i], c.want[i])
			}
		}
	}
}
