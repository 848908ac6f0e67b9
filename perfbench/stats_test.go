package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n       int
		q       float64
		want    float64
		support bool
	}{
		{1000, 0.99, 990, true}, // ranks 991..1000 lie beyond: exactly ten
		{999, 0.99, 990, false}, // nine beyond
		{100, 0.9, 90, true},
		{99, 0.9, 90, false},
		{10, 0.5, 5, false},
		{21, 0.5, 11, true},
		{10000, 0.999, 9990, true},
		{1000, 0.9, 900, true},
	} {
		got, ok := percentile(seq(tc.n), tc.q)
		if got != tc.want || ok != tc.support {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", tc.n, tc.q, got, ok, tc.want, tc.support)
		}
	}
}

func TestFailuresMissEveryLimit(t *testing.T) {
	var l latencies
	for i := 0; i < 990; i++ {
		l.add(1)
	}
	for i := 0; i < 10; i++ {
		l.fail()
	}
	if p, ok := percentile(l.vals, 0.99); !ok || p != 1 {
		t.Fatalf("p99 with 1%% failed = %v, %v; want 1, true", p, ok)
	}
	l.fail()
	if p, _ := percentile(l.vals, 0.99); !math.IsInf(p, 1) {
		t.Fatalf("p99 with over 1%% failed = %v; want +Inf", p)
	}
	if l.count() != 1001 {
		t.Fatalf("count %d; want 1001 with the failures", l.count())
	}
}

// The reference values are Python's statistics.quantiles(data, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9.0, 2.0}, [3]float64{1.4375, 2.75, 7.625}},
		{[]float64{5, 5, 5}, [3]float64{5, 5, 5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, q2, q3 := quartiles(tc.in)
		if [3]float64{q1, q2, q3} != tc.want {
			t.Errorf("quartiles(%v) = %v %v %v; want %v", tc.in, q1, q2, q3, tc.want)
		}
	}
}

func TestHistDeltaQuantile(t *testing.T) {
	before := parseProm(`h_bucket{handler="/x",le="0.001"} 5
h_bucket{handler="/x",le="0.01"} 5
h_bucket{handler="/x",le="+Inf"} 5
`)
	after := parseProm(`h_bucket{handler="/x",le="0.001"} 55
h_bucket{handler="/x",le="0.01"} 105
h_bucket{handler="/x",le="+Inf"} 105
`)
	// 100 new observations: 50 at or below 1 ms, 50 in (1 ms, 10 ms].
	if got := histDeltaQuantile(before, after, "h", `handler="/x"`, 0.5); got != 0.001 {
		t.Errorf("p50 = %v; want 0.001", got)
	}
	if got := histDeltaQuantile(before, after, "h", `handler="/x"`, 0.99); math.Abs(got-0.00982) > 1e-9 {
		t.Errorf("p99 = %v; want 0.00982", got)
	}
	if got := histDeltaQuantile(after, after, "h", `handler="/x"`, 0.99); got != 0 {
		t.Errorf("p99 of no observations = %v; want 0", got)
	}
}

func TestParseGCTrace(t *testing.T) {
	p, ok := parseGCTrace("gc 7 @1.204s 3%: 0.018+2.1+0.031 ms clock, 0.036+0.2/1.0/0+0.062 ms cpu, 4->4->1 MB, 4 MB goal, 0 MB stacks, 0 MB globals, 2 P")
	if !ok || math.Abs(p-0.049) > 1e-12 {
		t.Fatalf("pause = %v, %v; want 0.049", p, ok)
	}
	if _, ok := parseGCTrace("cardserved: listening on 127.0.0.1:1"); ok {
		t.Fatal("parsed a non-gctrace line")
	}
}

// An open loop times each operation from when it was due: one slow
// operation charges its stall to the operations queued behind it, while
// the generator's own lateness stays near zero.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const step = 10 * time.Millisecond
	t0 := time.Now().Add(5 * time.Millisecond)
	out := openLoop(t0, 4, func(i int) time.Duration { return time.Duration(i) * step },
		func(i int) error {
			if i == 0 {
				time.Sleep(35 * time.Millisecond) // overruns the next three due times
			}
			return nil
		})
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	if out[0].latMs < 35 {
		t.Errorf("op 0 latency %v ms; want ≥ 35", out[0].latMs)
	}
	// Op i is due at i·10 ms but cannot start before op 0 ends at ~35 ms.
	for i := 1; i < 4; i++ {
		if min := ms(35*time.Millisecond - time.Duration(i)*step); out[i].latMs < min {
			t.Errorf("op %d latency %v ms; want ≥ %v (the stall it waited out)", i, out[i].latMs, min)
		}
	}
	for i, o := range out {
		if o.lateMs > 20 {
			t.Errorf("op %d generator lateness %v ms; the generator was ready on time", i, o.lateMs)
		}
	}
	if out[3].latMs > out[1].latMs {
		t.Errorf("later ops should have waited less: op1 %v ms, op3 %v ms", out[1].latMs, out[3].latMs)
	}
}
