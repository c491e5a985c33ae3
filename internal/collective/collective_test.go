package collective

import (
	"testing"

	"repro/internal/logp"
)

var testPolicies = []logp.DeliveryPolicy{
	logp.DeliverMaxLatency, logp.DeliverMinLatency, logp.DeliverRandom,
}

func runCB(t *testing.T, params logp.Params, pol logp.DeliveryPolicy, inputs []int64, op Op) ([]int64, logp.Result) {
	t.Helper()
	out := make([]int64, params.P)
	m := logp.NewMachine(params, logp.WithDeliveryPolicy(pol), logp.WithSeed(11), logp.WithStrictStallFree())
	res, err := m.Run(func(p logp.Proc) {
		mb := NewMailbox(p)
		out[p.ID()] = CombineBroadcast(mb, 100, inputs[p.ID()], op)
		mb.AssertDrained()
	})
	if err != nil {
		t.Fatalf("%v %v: %v", params, pol, err)
	}
	return out, res
}

func TestCombineBroadcastMax(t *testing.T) {
	params := logp.Params{P: 13, L: 16, O: 2, G: 4}
	inputs := make([]int64, params.P)
	for i := range inputs {
		inputs[i] = int64((i * 37) % 101)
	}
	var want int64
	for _, v := range inputs {
		if v > want {
			want = v
		}
	}
	for _, pol := range testPolicies {
		out, _ := runCB(t, params, pol, inputs, OpMax)
		for i, v := range out {
			if v != want {
				t.Fatalf("%v: proc %d got %d, want %d", pol, i, v, want)
			}
		}
	}
}

func TestCombineBroadcastSum(t *testing.T) {
	params := logp.Params{P: 9, L: 12, O: 1, G: 3}
	inputs := make([]int64, params.P)
	var want int64
	for i := range inputs {
		inputs[i] = int64(i + 1)
		want += inputs[i]
	}
	for _, pol := range testPolicies {
		out, _ := runCB(t, params, pol, inputs, OpSum)
		for i, v := range out {
			if v != want {
				t.Fatalf("%v: proc %d got %d, want %d", pol, i, v, want)
			}
		}
	}
}

func TestCombineBroadcastAndOr(t *testing.T) {
	params := logp.Params{P: 8, L: 8, O: 1, G: 2}
	inputs := []int64{1, 1, 0, 1, 1, 1, 1, 1}
	out, _ := runCB(t, params, logp.DeliverRandom, inputs, OpAnd)
	if out[3] != 0 {
		t.Fatalf("AND = %d, want 0", out[3])
	}
	out, _ = runCB(t, params, logp.DeliverRandom, inputs, OpOr)
	if out[5] != 1 {
		t.Fatalf("OR = %d, want 1", out[5])
	}
}

func TestCombineBroadcastSingleProc(t *testing.T) {
	params := logp.Params{P: 1, L: 4, O: 1, G: 2}
	out, res := runCB(t, params, logp.DeliverMaxLatency, []int64{42}, OpSum)
	if out[0] != 42 || res.MessagesSent != 0 {
		t.Fatalf("p=1 CB wrong: out=%v msgs=%d", out, res.MessagesSent)
	}
}

func TestCombineBroadcastCapacityOneStallFree(t *testing.T) {
	// ceil(L/G) = 1 triggers the paper's even/odd scheduling on the
	// binary tree; WithStrictStallFree (in runCB) certifies it.
	params := logp.Params{P: 16, L: 8, O: 2, G: 8}
	inputs := make([]int64, params.P)
	for i := range inputs {
		inputs[i] = int64(i)
	}
	for _, pol := range testPolicies {
		out, _ := runCB(t, params, pol, inputs, OpMax)
		if out[0] != 15 {
			t.Fatalf("%v: got %d, want 15", pol, out[0])
		}
	}
}

func TestCombineBroadcastWideTree(t *testing.T) {
	// Large capacity: flat tree, few levels.
	params := logp.Params{P: 64, L: 64, O: 1, G: 2} // capacity 32
	inputs := make([]int64, params.P)
	for i := range inputs {
		inputs[i] = int64(i)
	}
	out, res := runCB(t, params, logp.DeliverRandom, inputs, OpSum)
	if out[63] != 63*64/2 {
		t.Fatalf("sum = %d", out[63])
	}
	bound := CBTimeBound(params, params.P)
	if res.Time > 3*bound {
		t.Fatalf("CB time %d far above paper bound %d", res.Time, bound)
	}
}

func TestCBTimeScalesWithArity(t *testing.T) {
	// For fixed p and L, larger capacity (smaller G) must not slow
	// CB down dramatically: time is Theta(L log p / log(1+C)).
	inputs := make([]int64, 64)
	narrow := logp.Params{P: 64, L: 32, O: 2, G: 32} // capacity 1
	wide := logp.Params{P: 64, L: 32, O: 2, G: 2}    // capacity 16
	_, resNarrow := runCB(t, narrow, logp.DeliverMaxLatency, inputs, OpSum)
	_, resWide := runCB(t, wide, logp.DeliverMaxLatency, inputs, OpSum)
	if resWide.Time >= resNarrow.Time {
		t.Fatalf("wide tree (%d) not faster than binary tree (%d)", resWide.Time, resNarrow.Time)
	}
}

func TestRepeatedCBInstancesDoNotInterfere(t *testing.T) {
	// Back-to-back CBs with the same tag: sequence stamps must keep
	// instances separate even under reordering-prone policies.
	params := logp.Params{P: 10, L: 20, O: 1, G: 2}
	results := make([][3]int64, params.P)
	for _, pol := range testPolicies {
		m := logp.NewMachine(params, logp.WithDeliveryPolicy(pol), logp.WithSeed(5))
		_, err := m.Run(func(p logp.Proc) {
			mb := NewMailbox(p)
			id := int64(p.ID())
			results[p.ID()][0] = CombineBroadcast(mb, 7, id, OpSum)
			results[p.ID()][1] = CombineBroadcast(mb, 7, id+100, OpMax)
			results[p.ID()][2] = CombineBroadcast(mb, 7, id+1, OpMin)
		})
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		for i, r := range results {
			if r[0] != 45 || r[1] != 109 || r[2] != 1 {
				t.Fatalf("%v: proc %d results %v, want [45 109 1]", pol, i, r)
			}
		}
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	// After a barrier, every processor's clock must be at least the
	// latest joining time (proc 3 idles long before joining).
	params := logp.Params{P: 6, L: 8, O: 1, G: 2}
	m := logp.NewMachine(params)
	res, err := m.Run(func(p logp.Proc) {
		if p.ID() == 3 {
			p.Compute(500)
		}
		mb := NewMailbox(p)
		CombineBroadcast(mb, 20, 1, OpAnd) // the paper's barrier
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, ct := range res.ProcTimes {
		if ct < 500 {
			t.Fatalf("proc %d finished barrier at %d, before the last joiner", i, ct)
		}
	}
}

func TestBarrierTimeMeasuredFromLastJoiner(t *testing.T) {
	params := logp.Params{P: 8, L: 16, O: 2, G: 4}
	late := int64(1000)
	m := logp.NewMachine(params)
	res, err := m.Run(func(p logp.Proc) {
		if p.ID() == 5 {
			p.Compute(late)
		}
		mb := NewMailbox(p)
		CombineBroadcast(mb, 20, 1, OpAnd) // the paper's barrier
	})
	if err != nil {
		t.Fatal(err)
	}
	tSync := res.Time - late
	bound := CBTimeBound(params, params.P)
	if tSync <= 0 || tSync > 3*bound {
		t.Fatalf("Tsynch = %d, outside (0, %d]", tSync, 3*bound)
	}
}

func TestTreeBroadcast(t *testing.T) {
	params := logp.Params{P: 11, L: 12, O: 1, G: 3}
	for _, root := range []int{0, 4, 10} {
		got := make([]int64, params.P)
		m := logp.NewMachine(params, logp.WithDeliveryPolicy(logp.DeliverRandom), logp.WithSeed(9))
		_, err := m.Run(func(p logp.Proc) {
			mb := NewMailbox(p)
			x := int64(-1)
			if p.ID() == root {
				x = 777
			}
			got[p.ID()] = TreeBroadcast(mb, 30, root, x)
		})
		if err != nil {
			t.Fatalf("root %d: %v", root, err)
		}
		for i, v := range got {
			if v != 777 {
				t.Fatalf("root %d: proc %d got %d", root, i, v)
			}
		}
	}
}

func TestBuildBroadcastSchedule(t *testing.T) {
	params := logp.Params{P: 12, L: 10, O: 2, G: 4}
	s := BuildBroadcastSchedule(params, 0)
	// Every non-root has a parent; edges form a tree reaching all.
	informed := map[int]bool{0: true}
	frontier := []int{0}
	for len(frontier) > 0 {
		var next []int
		for _, u := range frontier {
			for _, v := range s.Targets[u] {
				if informed[v] {
					t.Fatalf("processor %d informed twice", v)
				}
				if s.Parent[v] != u {
					t.Fatalf("parent mismatch for %d", v)
				}
				informed[v] = true
				next = append(next, v)
			}
		}
		frontier = next
	}
	if len(informed) != params.P {
		t.Fatalf("schedule informs %d of %d processors", len(informed), params.P)
	}
	if s.Depth() <= 0 {
		t.Fatal("depth should be positive")
	}
}

func TestBroadcastScheduleSingleProc(t *testing.T) {
	params := logp.Params{P: 1, L: 4, O: 1, G: 2}
	s := BuildBroadcastSchedule(params, 0)
	if s.Depth() != 0 || len(s.Targets[0]) != 0 {
		t.Fatalf("trivial schedule wrong: %+v", s)
	}
}

func TestRunBroadcast(t *testing.T) {
	params := logp.Params{P: 14, L: 12, O: 2, G: 3}
	for _, root := range []int{0, 7} {
		sched := BuildBroadcastSchedule(params, root)
		got := make([]int64, params.P)
		for _, pol := range testPolicies {
			m := logp.NewMachine(params, logp.WithDeliveryPolicy(pol), logp.WithSeed(13), logp.WithStrictStallFree())
			res, err := m.Run(func(p logp.Proc) {
				mb := NewMailbox(p)
				x := int64(0)
				if p.ID() == root {
					x = 31337
				}
				got[p.ID()] = RunBroadcast(mb, 40, sched, x)
			})
			if err != nil {
				t.Fatalf("root %d %v: %v", root, pol, err)
			}
			for i, v := range got {
				if v != 31337 {
					t.Fatalf("root %d %v: proc %d got %d", root, pol, i, v)
				}
			}
			// The greedy schedule predicts completion assuming
			// worst-case latency; measured time should not exceed
			// the prediction by more than the final acquisition
			// overhead.
			if res.Time > sched.Depth()+params.O+params.G {
				t.Fatalf("root %d %v: time %d exceeds predicted depth %d", root, pol, res.Time, sched.Depth())
			}
		}
	}
}

func TestGreedyBroadcastBeatsOrMatchesCBTree(t *testing.T) {
	// The greedy tree is optimal; the CB-tree descend must not beat
	// it for identical parameters.
	params := logp.Params{P: 32, L: 16, O: 2, G: 4}
	sched := BuildBroadcastSchedule(params, 0)
	mGreedy := logp.NewMachine(params)
	resGreedy, err := mGreedy.Run(func(p logp.Proc) {
		mb := NewMailbox(p)
		RunBroadcast(mb, 40, sched, int64(p.ID()))
	})
	if err != nil {
		t.Fatal(err)
	}
	mTree := logp.NewMachine(params)
	resTree, err := mTree.Run(func(p logp.Proc) {
		mb := NewMailbox(p)
		TreeBroadcast(mb, 30, 0, int64(p.ID()))
	})
	if err != nil {
		t.Fatal(err)
	}
	if resGreedy.Time > resTree.Time {
		t.Fatalf("greedy broadcast (%d) slower than CB tree (%d)", resGreedy.Time, resTree.Time)
	}
}

func TestMailboxHoldsAndReleases(t *testing.T) {
	params := logp.Params{P: 2, L: 8, O: 1, G: 2}
	m := logp.NewMachine(params, logp.WithDeliveryPolicy(logp.DeliverMinLatency))
	var order []int32
	_, err := m.Run(func(p logp.Proc) {
		if p.ID() == 0 {
			p.Send(1, 1, 10, 0)
			p.Send(1, 2, 20, 0)
			return
		}
		mb := NewMailbox(p)
		tagIs := func(tag int32) func(logp.Message) bool {
			return func(m logp.Message) bool { return m.Tag == tag }
		}
		// Ask for tag 2 first even though tag 1 arrives first.
		m2 := mb.RecvWhere(tagIs(2))
		order = append(order, m2.Tag)
		if len(mb.held) != 1 {
			panic("expected one held message")
		}
		m1 := mb.RecvWhere(tagIs(1))
		order = append(order, m1.Tag)
		mb.AssertDrained()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 2 || order[1] != 1 {
		t.Fatalf("order = %v", order)
	}
}

func TestTreeFamily(t *testing.T) {
	// Binary tree over 7 nodes: node 0 children 1,2; node 2 children
	// 5,6; node 3 leaf.
	parent, children := treeFamily(0, 7, 2)
	if parent != -1 || len(children) != 2 || children[0] != 1 || children[1] != 2 {
		t.Fatalf("node 0: parent=%d children=%v", parent, children)
	}
	parent, children = treeFamily(2, 7, 2)
	if parent != 0 || children[0] != 5 || children[1] != 6 {
		t.Fatalf("node 2: parent=%d children=%v", parent, children)
	}
	parent, children = treeFamily(3, 7, 2)
	if parent != 1 || len(children) != 0 {
		t.Fatalf("node 3: parent=%d children=%v", parent, children)
	}
	// 4-ary over 9: node 0 children 1..4, node 1 children 5..8.
	_, children = treeFamily(1, 9, 4)
	if len(children) != 4 || children[0] != 5 || children[3] != 8 {
		t.Fatalf("4-ary node 1 children = %v", children)
	}
}

func TestTreeArity(t *testing.T) {
	if a := TreeArity(logp.Params{P: 4, L: 8, O: 1, G: 8}); a != 2 {
		t.Fatalf("arity = %d, want 2 (capacity 1 floors at binary)", a)
	}
	if a := TreeArity(logp.Params{P: 4, L: 32, O: 1, G: 4}); a != 8 {
		t.Fatalf("arity = %d, want 8", a)
	}
}
