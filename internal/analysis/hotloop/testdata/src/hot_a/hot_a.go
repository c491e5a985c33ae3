// Package hot_a is the failing fixture for the hotloop analyzer:
// append growth, fmt formatting, string concatenation, and channel
// operations inside loops of the hot set.
package hot_a

import "fmt"

var sinkStr string

// worker stands in for a goroutine's per-batch transform loop.
//
//hot:path per-batch transform loop
func worker(in, out chan int, batch []int, quit chan struct{}) {
	acc := ""
	for i := range batch {
		batch = append(batch, i) // want `append in a loop of hot function worker`
		acc += "x"               // want `string concatenation in a loop of hot function worker`
		label := "ev" + acc      // want `string concatenation in a loop of hot function worker`
		_ = label
		out <- i  // want `channel send in a loop of hot function worker`
		v := <-in // want `channel receive in a loop of hot function worker`
		_ = v
		select { // want `select in a loop of hot function worker`
		case <-quit:
		default:
		}
		_ = fmt.Sprintf("ev %d", i) // want `fmt.Sprintf in a loop of hot function worker`
	}
	sinkStr = acc
}
