package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestChernoffUpperTailMonotoneInDelta(t *testing.T) {
	prev := 1.1
	for delta := 0.0; delta <= 8; delta += 0.25 {
		b := ChernoffUpperTail(10, delta)
		if b > prev+1e-12 {
			t.Fatalf("bound not non-increasing at delta=%v: %v > %v", delta, b, prev)
		}
		prev = b
	}
}

func TestChernoffUpperTailAtZeroDelta(t *testing.T) {
	if b := ChernoffUpperTail(5, 0); !almost(b, 1, 1e-12) {
		t.Fatalf("bound at delta=0 should be 1, got %v", b)
	}
}

func TestChernoffUpperTailZeroMu(t *testing.T) {
	if b := ChernoffUpperTail(0, 1); b != 0 {
		t.Fatalf("bound at mu=0 should be 0, got %v", b)
	}
}

func TestChernoffUpperTailInUnitInterval(t *testing.T) {
	check := func(muRaw, deltaRaw uint16) bool {
		mu := float64(muRaw%1000) / 10
		delta := float64(deltaRaw%100) / 10
		b := ChernoffUpperTail(mu, delta)
		return b >= 0 && b <= 1+1e-12 && !math.IsNaN(b)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChernoffDominatesSimulation(t *testing.T) {
	// Empirically verify the bound on Binomial(n, q) exceeding
	// (1+delta)*mu where mu = n*q.
	r := NewRNG(123)
	const n, trials = 64, 20000
	q := 0.25
	mu := float64(n) * q
	delta := 1.0
	thresh := (1 + delta) * mu
	exceed := 0
	for trial := 0; trial < trials; trial++ {
		count := 0
		for i := 0; i < n; i++ {
			if r.Float64() < q {
				count++
			}
		}
		if float64(count) > thresh {
			exceed++
		}
	}
	empirical := float64(exceed) / trials
	bound := ChernoffUpperTail(mu, delta)
	if empirical > bound*1.05+0.002 {
		t.Fatalf("empirical tail %v exceeds Chernoff bound %v", empirical, bound)
	}
}

func TestTheorem3Rounds(t *testing.T) {
	if r := Theorem3Rounds(100, 10, 1); r != 20 {
		t.Fatalf("rounds = %d, want 20", r)
	}
	if r := Theorem3Rounds(0, 10, 1); r != 1 {
		t.Fatalf("rounds floor = %d, want 1", r)
	}
}

func TestTheorem3RoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity did not panic")
		}
	}()
	Theorem3Rounds(5, 0, 1)
}

func TestTheorem3FailureBoundShrinksWithCapacity(t *testing.T) {
	prev := 2.0
	for c := 4; c <= 64; c *= 2 {
		b := Theorem3FailureBound(256, 256, c, 1.0)
		if b > prev+1e-12 {
			t.Fatalf("failure bound grew with capacity at c=%d: %v > %v", c, b, prev)
		}
		prev = b
	}
}

func TestTheorem3FailureBoundCapped(t *testing.T) {
	if b := Theorem3FailureBound(1024, 1024, 1, 0); b != 1 {
		t.Fatalf("bound should cap at 1, got %v", b)
	}
}
