package stats

import (
	"math"
	"math/bits"
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
		p := make([]int32, m)
		NewRNG(seed).Perm32Into(p, m)
		seen := make([]bool, m)
		for _, v := range p {
			if v < 0 || int(v) >= m || seen[v] {
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
		p := make([]int32, 10)
		NewRNG(seed).Perm32Into(p, 10)
		id := true
		for i, v := range p {
			if i != int(v) {
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

// reservoirByIntn is the one-Intn-per-item loop Reservoir must draw
// exactly as.
func reservoirByIntn(r *RNG, n int) int {
	chosen := -1
	for k := 1; k <= n; k++ {
		if r.Intn(k) == 0 {
			chosen = k - 1
		}
	}
	return chosen
}

// TestReservoirMatchesIntnLoop checks that Reservoir picks what the
// Intn loop picks and leaves the generator where the loop leaves it,
// for every n up to two 64-bit words' worth of items.
func TestReservoirMatchesIntnLoop(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		for n := 1; n <= 128; n++ {
			got, want := NewRNG(seed), NewRNG(seed)
			// Start mid-stream so n's draws do not all begin at a
			// freshly seeded state.
			for i := uint64(0); i < seed%7; i++ {
				got.Uint64()
				want.Uint64()
			}
			if g, w := got.Reservoir(n), reservoirByIntn(want, n); g != w {
				t.Fatalf("seed %d: Reservoir(%d) = %d, Intn loop picks %d", seed, n, g, w)
			}
			if got.s != want.s {
				t.Fatalf("seed %d: after Reservoir(%d) state %x, Intn loop leaves %x", seed, n, got.s, want.s)
			}
		}
	}
}

// stepBack undoes one Uint64 step of xoshiro256**.
func stepBack(s [4]uint64) [4]uint64 {
	a := bits.RotateLeft64(s[3], -45) // old s3 ^ old s1
	s0 := s[0] ^ a
	y := s[1] ^ s[2] // old s1 ^ (old s1 << 17)
	s1 := y ^ y<<17 ^ y<<34 ^ y<<51
	return [4]uint64{s0, s1, s[1] ^ s1 ^ s0, a ^ s1}
}

// TestReservoirRedrawsLikeIntn forces Lemire's rejection: from a state
// whose s[1] is 0 the next output is 0, and 0 is below Intn(3)'s
// threshold 2^64 mod 3 = 1, so Intn(3) must draw again. Stepping that
// state back two draws makes the zero land on k = 3.
func TestReservoirRedrawsLikeIntn(t *testing.T) {
	zero := [4]uint64{0x9e3779b97f4a7c15, 0, 0xbf58476d1ce4e5b9, 0x94d049bb133111eb}
	start := stepBack(stepBack(zero))
	probe := &RNG{s: start}
	probe.Uint64()
	probe.Uint64()
	if probe.s != zero || probe.Uint64() != 0 {
		t.Fatal("stepBack does not invert Uint64")
	}
	for n := 3; n <= 6; n++ {
		got, want := &RNG{s: start}, &RNG{s: start}
		if g, w := got.Reservoir(n), reservoirByIntn(want, n); g != w || got.s != want.s {
			t.Fatalf("Reservoir(%d) = %d with state %x; Intn loop picks %d with state %x", n, g, got.s, w, want.s)
		}
	}
}

func TestReservoirPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Reservoir(0) did not panic")
		}
	}()
	NewRNG(1).Reservoir(0)
}

var reservoirSink int

// BenchmarkReservoir compares one Reservoir call with the equivalent
// Intn loop at n = 30, about the number of free instants in a
// DeliverRandom window at L = 40.
func BenchmarkReservoir(b *testing.B) {
	r := NewRNG(1)
	b.Run("Reservoir", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			reservoirSink = r.Reservoir(30)
		}
	})
	b.Run("IntnLoop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			reservoirSink = reservoirByIntn(r, 30)
		}
	})
}
