package bsputil

import (
	"strings"
	"testing"

	"repro/internal/bsp"
	"repro/internal/core"
	"repro/internal/logp"
)

func runBSP(t *testing.T, p int, prog bsp.Program) bsp.Result {
	t.Helper()
	res, err := bsp.NewMachine(bsp.Params{P: p, G: 2, L: 16}).Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestBroadcast(t *testing.T) {
	data := []int64{10, 20, 30, 40, 50}
	got := make([][]int64, 6)
	res := runBSP(t, 6, func(p bsp.Proc) {
		got[p.ID()] = Broadcast(p, 1, 2, append([]int64(nil), data...))
	})
	for i, g := range got {
		if len(g) != len(data) {
			t.Fatalf("proc %d got %d values", i, len(g))
		}
		for j := range data {
			if g[j] != data[j] {
				t.Fatalf("proc %d value %d = %d", i, j, g[j])
			}
		}
	}
	if res.Supersteps != 1 {
		t.Fatalf("supersteps = %d, want 1", res.Supersteps)
	}
	// Direct broadcast: h = n*(p-1) at the root.
	if res.Costs[0].H != int64(len(data)*5) {
		t.Fatalf("h = %d, want %d", res.Costs[0].H, len(data)*5)
	}
}

func TestAllReduce(t *testing.T) {
	const n = 8
	got := make([]int64, n)
	runBSP(t, n, func(p bsp.Proc) {
		got[p.ID()] = AllReduce(p, 1, OpMax, int64((p.ID()*13)%40))
	})
	want := int64(0)
	for i := 0; i < n; i++ {
		if v := int64((i * 13) % 40); v > want {
			want = v
		}
	}
	for i, v := range got {
		if v != want {
			t.Fatalf("proc %d allreduce = %d, want %d", i, v, want)
		}
	}
}

func TestAllReducePanicsNonPow2(t *testing.T) {
	_, err := bsp.NewMachine(bsp.Params{P: 6, G: 1, L: 1}).Run(func(p bsp.Proc) {
		AllReduce(p, 1, OpSum, 1)
	})
	if err == nil || !strings.Contains(err.Error(), "power-of-two") {
		t.Fatalf("expected pow2 panic, got %v", err)
	}
}

func TestPrefixSums(t *testing.T) {
	const n = 9
	got := make([]int64, n)
	runBSP(t, n, func(p bsp.Proc) {
		got[p.ID()] = PrefixSums(p, 1, OpSum, int64(p.ID()+1), 0)
	})
	want := int64(0)
	for i := 0; i < n; i++ {
		if got[i] != want {
			t.Fatalf("prefix[%d] = %d, want %d", i, got[i], want)
		}
		want += int64(i + 1)
	}
}

func TestAllToAll(t *testing.T) {
	const n = 6
	got := make([][]int64, n)
	runBSP(t, n, func(p bsp.Proc) {
		send := make([]int64, n)
		for j := range send {
			send[j] = int64(p.ID()*100 + j)
		}
		got[p.ID()] = AllToAll(p, 1, send)
	})
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if got[i][j] != int64(j*100+i) {
				t.Fatalf("recv[%d][%d] = %d, want %d", i, j, got[i][j], j*100+i)
			}
		}
	}
}

func TestAllToAllPanicsOnBadLength(t *testing.T) {
	_, err := bsp.NewMachine(bsp.Params{P: 3, G: 1, L: 1}).Run(func(p bsp.Proc) {
		AllToAll(p, 1, []int64{1})
	})
	if err == nil || !strings.Contains(err.Error(), "one value per processor") {
		t.Fatalf("expected length panic, got %v", err)
	}
}

// TestCollectivesOnLogP runs the whole collective library through the
// Theorem 2 cross-simulation: identical results are required.
func TestCollectivesOnLogP(t *testing.T) {
	const n = 8
	lp := logp.Params{P: n, L: 16, O: 2, G: 4}
	prog := func(results [][]int64) bsp.Program {
		return func(p bsp.Proc) {
			id := int64(p.ID())
			r := make([]int64, 0, 4)
			r = append(r, AllReduce(p, 1, OpSum, id+1))
			r = append(r, PrefixSums(p, 2, OpSum, id+1, 0))
			bc := Broadcast(p, 3, 0, []int64{7, 8, 9})
			r = append(r, bc[2])
			send := make([]int64, n)
			for j := range send {
				send[j] = id*10 + int64(j)
			}
			a2a := AllToAll(p, 4, send)
			r = append(r, a2a[(p.ID()+1)%n])
			results[p.ID()] = r
		}
	}
	native := make([][]int64, n)
	if _, err := bsp.NewMachine(bsp.Params{P: n, G: lp.G, L: lp.L}).Run(prog(native)); err != nil {
		t.Fatal(err)
	}
	for _, router := range []core.Router{core.RouterDeterministic, core.RouterRandomized, core.RouterOffline} {
		crossed := make([][]int64, n)
		sim := &core.BSPOnLogP{LogP: lp, Router: router, Seed: 13}
		if _, err := sim.Run(prog(crossed)); err != nil {
			t.Fatalf("%v: %v", router, err)
		}
		for i := range native {
			for k := range native[i] {
				if native[i][k] != crossed[i][k] {
					t.Fatalf("%v: proc %d result %d: native %d vs crossed %d",
						router, i, k, native[i][k], crossed[i][k])
				}
			}
		}
	}
}
