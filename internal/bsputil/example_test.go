package bsputil_test

import (
	"fmt"

	"repro/internal/bsp"
	"repro/internal/bsputil"
)

// Exclusive prefix sums across processors in ceil(log2 p) supersteps.
func ExamplePrefixSums() {
	const p = 8
	prefix := make([]int64, p)
	_, err := bsp.NewMachine(bsp.Params{P: p, G: 1, L: 4}).Run(func(pr bsp.Proc) {
		prefix[pr.ID()] = bsputil.PrefixSums(pr, 1, bsputil.OpSum, int64(pr.ID()+1), 0)
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(prefix)
	// Output:
	// [0 1 3 6 10 15 21 28]
}
