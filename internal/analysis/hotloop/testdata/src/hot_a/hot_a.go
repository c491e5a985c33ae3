// Package hot_a is the failing fixture for the hotloop analyzer:
// append growth, fmt formatting, and string concatenation inside loops
// of the hot set.
package hot_a

import "fmt"

var sinkStr string

// transform stands in for a per-batch transform loop.
//
//hot:path per-batch transform loop
func transform(batch []int) {
	acc := ""
	for i := range batch {
		batch = append(batch, i) // want `append in a loop of hot function transform`
		acc += "x"               // want `string concatenation in a loop of hot function transform`
		label := "ev" + acc      // want `string concatenation in a loop of hot function transform`
		_ = label
		line := "ev " + acc + "\n"         // want `string concatenation in a loop of hot function transform`
		key := "k" + (fmt.Sprint(i) + acc) // want `string concatenation in a loop of hot function transform` `fmt.Sprint in a loop of hot function transform`
		_, _ = line, key
		_ = fmt.Sprintf("ev %d", i) // want `fmt.Sprintf in a loop of hot function transform`
	}
	sinkStr = acc
}
