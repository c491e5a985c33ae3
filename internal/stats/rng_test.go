package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewRNGDeterministic(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("streams diverged at %d: %d != %d", i, av, bv)
		}
	}
}

func TestNewRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical outputs", same)
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(3)
	for n := 1; n <= 17; n++ {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestUint64nCoversAllResidues(t *testing.T) {
	r := NewRNG(11)
	seen := make(map[uint64]bool)
	for i := 0; i < 5000; i++ {
		seen[r.Uint64n(7)] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Uint64n(7) produced only %d distinct values", len(seen))
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(9)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want about 0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	check := func(seed uint64, n uint8) bool {
		m := int(n%64) + 1
		p := NewRNG(seed).Perm(m)
		if len(p) != m {
			return false
		}
		seen := make([]bool, m)
		for _, v := range p {
			if v < 0 || v >= m || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPermNotIdentityUsually(t *testing.T) {
	identity := 0
	for seed := uint64(0); seed < 50; seed++ {
		p := NewRNG(seed).Perm(10)
		id := true
		for i, v := range p {
			if i != v {
				id = false
				break
			}
		}
		if id {
			identity++
		}
	}
	if identity > 1 {
		t.Fatalf("%d/50 permutations of size 10 were the identity", identity)
	}
}

func TestBoolBalance(t *testing.T) {
	r := NewRNG(13)
	trues := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if r.Bool() {
			trues++
		}
	}
	frac := float64(trues) / n
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("Bool() true fraction = %v", frac)
	}
}

func TestShuffleKeepsMultiset(t *testing.T) {
	r := NewRNG(21)
	xs := []int{5, 5, 3, 2, 2, 2, 9}
	counts := map[int]int{}
	for _, x := range xs {
		counts[x]++
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	after := map[int]int{}
	for _, x := range xs {
		after[x]++
	}
	for k, v := range counts {
		if after[k] != v {
			t.Fatalf("multiset changed: key %d had %d now %d", k, v, after[k])
		}
	}
}
