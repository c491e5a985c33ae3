// Package hot_clean is the conforming fixture for hotloop: pre-sized
// index-addressed writes in the hot loop, channel handoff hoisted out
// of the loop, fmt only inside panic messages, and the one deliberate
// per-batch channel op carrying its annotated exception.
package hot_clean

import "fmt"

// drain is hot but writes into a pre-sized buffer by index; the
// channel handoff happens once per batch, outside the loop.
//
//hot:path per-batch drain loop
func drain(out chan int, batch, into []int) {
	total := 0
	for i, ev := range batch {
		if ev < 0 {
			panic(fmt.Sprintf("negative event %d", ev)) // fmt in a panic message is exempt
		}
		into[i] = ev
		total += ev
	}
	out <- total
}

// handoff documents a per-processor rendezvous a protocol is built
// around: a real channel op in a hot loop, annotated.
//
//hot:path per-proc handoff
func handoff(done chan int, procs []int) {
	for _, p := range procs {
		//lint:ignore hotloop the protocol hands each proc back individually; this rendezvous is load-bearing
		done <- p
	}
}
