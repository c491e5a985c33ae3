package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/bsp"
	"repro/internal/logp"
	"repro/internal/relation"
	"repro/internal/stats"
)

// regularProgram is a one-superstep BSP program routing one fixed
// random regular h-relation on p processors (the shape of E3 and of
// the benchmark's thm2-routers workload), then draining the inbox.
func regularProgram(p, h int) bsp.Program {
	var by relation.Grouping
	by.Group(relation.RandomRegular(stats.NewRNG(uint64(1000*p+h)), p, h))
	return func(pr bsp.Proc) {
		for _, pair := range by.Source(pr.ID()) {
			pr.Send(pair.Dst, 0, int64(pair.Dst), 0)
		}
		pr.Sync()
		for {
			if _, ok := pr.Recv(); !ok {
				return
			}
		}
	}
}

// BenchmarkBSPOnLogPDeterministic times one warm Theorem 2 run of the
// deterministic router with the bitonic network at p = 64: the layer
// whose per-round merge-split the router charges as Compute(2r).
func BenchmarkBSPOnLogPDeterministic(b *testing.B) {
	benchBSPOnLogP(b, RouterDeterministic, SortBitonic)
}

// BenchmarkBSPOnLogPOffline times one warm run of the Section 4.2
// off-line router at p = 64: the Hall decomposition and Step 4's
// pipelined delivery with its opportunistic polls.
func BenchmarkBSPOnLogPOffline(b *testing.B) {
	benchBSPOnLogP(b, RouterOffline, SortAuto)
}

// benchBSPOnLogP times warm runs of one router on a random regular
// h-relation at p = 64, L = 16, o = 1, G = 2, for h = 4 and h = 32.
func benchBSPOnLogP(b *testing.B, router Router, sort SortAlgo) {
	const p = 64
	for _, h := range []int{4, 32} {
		b.Run(fmt.Sprintf("h=%d", h), func(b *testing.B) {
			sim := &BSPOnLogP{LogP: logp.Params{P: p, L: 16, O: 1, G: 2},
				Router: router, Sort: sort, Seed: 1, StrictStallFree: true}
			prog := regularProgram(p, h)
			if _, err := sim.Run(prog); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(prog); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// FuzzMergeSplit checks the sorting networks' comparator against a
// sort oracle: for two blocks of r items — duplicate-heavy, with
// dummies (Dst == p) and fully equal messages — the kept half must be
// value-identical to the r smallest or r largest items of the sorted
// concatenation, whether the partner block arrived in send order or
// shuffled.
func FuzzMergeSplit(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, uint8(3), true, false)
	f.Add([]byte{9, 9, 9, 9}, uint8(4), false, false)
	f.Add([]byte{4, 12, 4, 200, 4, 4, 77, 4, 31}, uint8(17), true, true)
	f.Add([]byte{255, 0, 128, 7}, uint8(63), false, true)
	f.Add([]byte{}, uint8(0), true, true)
	f.Fuzz(func(t *testing.T, data []byte, rRaw uint8, keepLow, shuffle bool) {
		const p = 4
		r := int(rRaw%64) + 1
		item := func(k int) *bsp.Message {
			var b byte
			if len(data) > 0 {
				b = data[k%len(data)] + byte(k/len(data))
			}
			// Few distinct values per field, so ties on every prefix
			// of the comparator's key order are common; Dst == p is
			// the dummy destination.
			return &bsp.Message{Dst: int(b % (p + 1)), Src: int(b>>3) % 2, Tag: int32(b>>4) % 2, Payload: int64(b>>5) % 2, Aux: int64(b >> 6)}
		}
		mine := make([]*bsp.Message, r)
		theirs := make([]*bsp.Message, r)
		for k := 0; k < r; k++ {
			mine[k], theirs[k] = item(2*k), item(2*k+1)
		}
		slices.SortFunc(mine, compareItems)
		slices.SortFunc(theirs, compareItems)
		all := append(slices.Clone(mine), theirs...)
		slices.SortFunc(all, compareItems)
		want := all[r:]
		if keepLow {
			want = all[:r]
		}
		if shuffle {
			rng := stats.NewRNG(uint64(len(data))*31 + uint64(rRaw))
			for i := r - 1; i > 0; i-- {
				j := rng.Intn(i + 1)
				theirs[i], theirs[j] = theirs[j], theirs[i]
			}
		}
		got := make([]*bsp.Message, r)
		mergeSplit(got, mine, theirs, keepLow)
		for k := range want {
			if *got[k] != *want[k] {
				t.Fatalf("r=%d keepLow=%v shuffle=%v: item %d = %+v, want %+v", r, keepLow, shuffle, k, *got[k], *want[k])
			}
		}
		// With room for both blocks it is a full merge (the columnsort
		// boundary window), from either end.
		full := make([]*bsp.Message, 2*r)
		mergeSplit(full, mine, theirs, keepLow)
		for k := range all {
			if *full[k] != *all[k] {
				t.Fatalf("r=%d keepLow=%v: full merge item %d = %+v, want %+v", r, keepLow, k, *full[k], *all[k])
			}
		}
	})
}
