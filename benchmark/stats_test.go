package main

import (
	"math"
	"os"
	"testing"
)

func TestNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got := nearestRank(xs, c.q); got != c.want {
			t.Errorf("nearestRank(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := nearestRank([]float64{3, 7, 9}, 0.5); got != 7 {
		t.Errorf("median of 3 = %v, want 7", got)
	}
}

// The tail percentile needs ten samples beyond it: p90 needs 100 ops,
// and 99 ops leave only nine beyond.
func TestTailRule(t *testing.T) {
	if n := minOpsFor(0.9); n != 100 {
		t.Errorf("minOpsFor(0.9) = %d, want 100", n)
	}
	if b := beyond(100, 0.9); b != 10 {
		t.Errorf("beyond(100, 0.9) = %d, want 10", b)
	}
	if b := beyond(99, 0.9); b != 9 {
		t.Errorf("beyond(99, 0.9) = %d, want 9", b)
	}
	if n := minOpsFor(0.5); n != 20 {
		t.Errorf("minOpsFor(0.5) = %d, want 20", n)
	}
}

// Values from Python: statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 4, 7}, [3]float64{1.75, 5.5, 9.25}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
	} {
		q1, med, q3 := quartiles(c.xs)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestFoldTopFixture(t *testing.T) {
	text, err := os.ReadFile("testdata/pprof_top.txt")
	if err != nil {
		t.Fatal(err)
	}
	fold, err := foldTop(string(text))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"logp": 0.25, "runtime": 0.25, "core": 0.125, "coro": 0.15, "slices": 0.05,
		"netsim": 0.05, "benchmark": 0.05, "relation": 0.025, "stats": 0.05,
	}
	for k, v := range want {
		if math.Abs(fold[k]-v) > 1e-9 {
			t.Errorf("fold[%q] = %v, want %v", k, fold[k], v)
		}
	}
	if len(fold) != len(want) {
		t.Errorf("fold has buckets %v, want exactly %v", fold, want)
	}
	if _, err := foldTop("no table here\n"); err == nil {
		t.Error("foldTop accepted text without a pprof table")
	}
}
