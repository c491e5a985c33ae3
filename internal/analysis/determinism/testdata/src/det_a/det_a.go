// Package det_a is the failing fixture for the determinism analyzer:
// every construct here breaks bit-reproducibility of a simulation run.
package det_a

import (
	"fmt"
	"math/rand"
	randv2 "math/rand/v2"
	"time"
)

// tracer stands in for the engines' event sinks.
type tracer struct{ events []string }

func (t *tracer) Emit(s string) { t.events = append(t.events, s) }

func wallClock() time.Duration {
	start := time.Now()      // want `wall-clock time\.Now in simulation code`
	return time.Since(start) // want `wall-clock time\.Since in simulation code`
}

func globalRand() int {
	return rand.Intn(8) // want `math/rand\.Intn is process-global and unseeded`
}

func globalRandV2() uint64 {
	return randv2.Uint64() // want `math/rand/v2\.Uint64 is process-global and unseeded`
}

func mapOrderEmission(t *tracer, m map[int]int64) {
	for k, v := range m { // want `map iteration order is unspecified but this loop feeds Emit\(\)`
		t.Emit(fmt.Sprintf("%d=%d", k, v))
	}
}

func mapOrderFloatAccum(m map[int]float64) float64 {
	var s float64
	for _, v := range m { // want `map iteration order is unspecified but this loop feeds float accumulation`
		s += v
	}
	return s
}
