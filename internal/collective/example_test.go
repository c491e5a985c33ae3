package collective_test

import (
	"fmt"

	"repro/internal/collective"
	"repro/internal/logp"
)

// Combine-and-Broadcast (the paper's CB primitive): the maximum over
// all processors' inputs is returned at every processor, in
// O(L log p / log(1 + ceil(L/G))) time.
func ExampleCombineBroadcast() {
	params := logp.Params{P: 16, L: 16, O: 1, G: 4}
	results := make([]int64, params.P)
	m := logp.NewMachine(params, logp.WithStrictStallFree())
	res, err := m.Run(func(p logp.Proc) {
		mb := collective.NewMailbox(p)
		results[p.ID()] = collective.CombineBroadcast(mb, 1, int64(p.ID()*p.ID()), collective.OpMax)
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("max of squares:", results[0], "everywhere:", results[0] == results[15])
	fmt.Println("within bound:", res.Time <= 3*collective.CBTimeBound(params, params.P))
	// Output:
	// max of squares: 225 everywhere: true
	// within bound: true
}

// The greedy optimal broadcast tree of Karp et al.: the schedule is
// computed locally from the machine parameters, then executed.
func ExampleBuildBroadcastSchedule() {
	params := logp.Params{P: 8, L: 8, O: 1, G: 2}
	sched := collective.BuildBroadcastSchedule(params, 0)
	got := make([]int64, params.P)
	m := logp.NewMachine(params, logp.WithStrictStallFree())
	_, err := m.Run(func(p logp.Proc) {
		mb := collective.NewMailbox(p)
		x := int64(0)
		if p.ID() == 0 {
			x = 99
		}
		got[p.ID()] = collective.RunBroadcast(mb, 1, sched, x)
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("processor 7 got:", got[7], "from:", sched.Parent[7], "predicted by:", sched.Informed[7])
	// Output:
	// processor 7 got: 99 from: 1 predicted by: 20
}
