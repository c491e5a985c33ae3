package netrun

import (
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/bsp"
	"repro/internal/netsim"
	"repro/internal/topology"
)

func hypercubeMachine(t *testing.T, p int) *Machine {
	t.Helper()
	return NewMachine(netsim.New(topology.Hypercube(p, true)))
}

func TestRunSimpleExchange(t *testing.T) {
	m := hypercubeMachine(t, 8)
	var delivered atomic.Int64
	res, err := m.Run(func(pr bsp.Proc) {
		n := pr.P()
		pr.Send((pr.ID()+1)%n, 0, int64(pr.ID()), 0)
		pr.Compute(5)
		pr.Sync()
		if msg, ok := pr.Recv(); ok && msg.Payload == int64((pr.ID()+n-1)%n) {
			delivered.Add(1)
		}
		pr.Sync()
	})
	if err != nil {
		t.Fatal(err)
	}
	if delivered.Load() != 8 {
		t.Fatalf("delivered = %d, want 8", delivered.Load())
	}
	if res.Supersteps != 1 {
		t.Fatalf("supersteps = %d, want 1 (the second is empty)", res.Supersteps)
	}
	c := res.Costs[0]
	if c.W != 5 || c.H != 1 || c.RouteSteps <= 0 {
		t.Fatalf("cost = %+v", c)
	}
	// Time = W + route + diameter.
	if res.Time != c.W+c.RouteSteps+int64(3) {
		t.Fatalf("time = %d, parts %+v + diameter 3", res.Time, c)
	}
}

func TestSemanticsIdenticalToNativeBSP(t *testing.T) {
	// A data-dependent program must compute the same values on the
	// network machine as on the abstract machine.
	prog := func(out []int64) bsp.Program {
		return func(pr bsp.Proc) {
			n := pr.P()
			for k := 1; k <= 3; k++ {
				pr.Send((pr.ID()+k)%n, 0, int64(pr.ID()*k), 0)
			}
			pr.Sync()
			var sum int64
			for {
				m, ok := pr.Recv()
				if !ok {
					break
				}
				sum += m.Payload
			}
			out[pr.ID()] = sum
		}
	}
	const p = 16
	native := make([]int64, p)
	if _, err := bsp.NewMachine(bsp.Params{P: p, G: 2, L: 8}).Run(prog(native)); err != nil {
		t.Fatal(err)
	}
	onNet := make([]int64, p)
	if _, err := hypercubeMachine(t, p).Run(prog(onNet)); err != nil {
		t.Fatal(err)
	}
	for i := range native {
		if native[i] != onNet[i] {
			t.Fatalf("proc %d: native %d vs network %d", i, native[i], onNet[i])
		}
	}
}

func TestTopologyOrderingForHeavyTraffic(t *testing.T) {
	// A communication-heavy program must run slower on a 2d mesh
	// (gamma = sqrt(p)) than on a hypercube (gamma = O(log p)) at the
	// same p — the paper's Table 1 ordering, measured end to end.
	prog := func(pr bsp.Proc) {
		n := pr.P()
		for k := 1; k < n; k++ {
			pr.Send((pr.ID()+k)%n, 0, 1, 0)
		}
		pr.Sync()
		for {
			if _, ok := pr.Recv(); !ok {
				break
			}
		}
	}
	const p = 64
	mesh := NewMachine(netsim.New(topology.Array(8, 2, false)))
	cube := NewMachine(netsim.New(topology.Hypercube(p, true)))
	mres, err := mesh.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	cres, err := cube.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	if cres.Time >= mres.Time {
		t.Fatalf("hypercube (%d) not faster than mesh (%d) for all-to-all", cres.Time, mres.Time)
	}
}

func TestPredictTracksMeasurement(t *testing.T) {
	// With (g, l) fitted for the topology, the abstract prediction
	// should track the measured time within a small factor.
	g := topology.Hypercube(32, true)
	meas := netsim.New(g).MeasureGL([]int{1, 2, 4, 8}, 3, 2, false)
	m := NewMachine(netsim.New(g))
	prog := func(pr bsp.Proc) {
		n := pr.P()
		for s := 0; s < 3; s++ {
			for k := 1; k <= 4; k++ {
				pr.Send((pr.ID()+k+s)%n, 0, 1, 0)
			}
			pr.Sync()
			for {
				if _, ok := pr.Recv(); !ok {
					break
				}
			}
		}
	}
	res, err := m.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	pred := res.Predict(int64(meas.G+0.5), int64(meas.L+0.5))
	ratio := float64(res.Time) / float64(pred)
	if ratio < 0.3 || ratio > 3 {
		t.Fatalf("measured %d vs predicted %d: ratio %.2f outside [0.3, 3]", res.Time, pred, ratio)
	}
}

func TestEmptyProgram(t *testing.T) {
	m := hypercubeMachine(t, 4)
	res, err := m.Run(func(pr bsp.Proc) {})
	if err != nil {
		t.Fatal(err)
	}
	if res.Time != 0 || res.Supersteps != 0 {
		t.Fatalf("empty program charged %+v", res)
	}
}

func TestWorkOnlySuperstepChargesBarrier(t *testing.T) {
	m := hypercubeMachine(t, 4)
	res, err := m.Run(func(pr bsp.Proc) {
		pr.Compute(10)
		pr.Sync()
	})
	if err != nil {
		t.Fatal(err)
	}
	// 10 work + 0 route + diameter 2.
	if res.Time != 12 {
		t.Fatalf("time = %d, want 12", res.Time)
	}
}

func TestProgramErrorPropagates(t *testing.T) {
	m := hypercubeMachine(t, 4)
	_, err := m.Run(func(pr bsp.Proc) {
		if pr.ID() == 2 {
			panic("netrun boom")
		}
	})
	if err == nil || !strings.Contains(err.Error(), "netrun boom") {
		t.Fatalf("expected panic error, got %v", err)
	}
}

func TestUnevenTermination(t *testing.T) {
	m := hypercubeMachine(t, 8)
	res, err := m.Run(func(pr bsp.Proc) {
		for s := 0; s <= pr.ID()%3; s++ {
			pr.Compute(1)
			pr.Sync()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Supersteps != 3 {
		t.Fatalf("supersteps = %d, want 3", res.Supersteps)
	}
}
