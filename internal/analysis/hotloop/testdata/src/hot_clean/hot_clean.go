// Package hot_clean is the conforming fixture for hotloop: pre-sized
// index-addressed writes in the hot loop, with fmt only inside panic
// messages.
package hot_clean

import "fmt"

// drain is hot but writes into a pre-sized buffer by index.
//
//hot:path per-batch drain loop
func drain(batch, into []int) int {
	total := 0
	for i, ev := range batch {
		if ev < 0 {
			panic(fmt.Sprintf("negative event %d", ev)) // fmt in a panic message is exempt
		}
		into[i] = ev
		total += ev
	}
	return total
}
