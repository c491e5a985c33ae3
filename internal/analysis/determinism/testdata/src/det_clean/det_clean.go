// Package det_clean is the negative fixture for the determinism
// analyzer: deterministic counterparts of everything det_a flags, plus
// one annotated intentional exception. No diagnostics are expected.
package det_clean

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/stats"
)

type tracer struct{ events []string }

func (t *tracer) Emit(s string) { t.events = append(t.events, s) }

// seededRand draws from the machine's splittable seeded generator.
func seededRand(rng *stats.RNG) uint64 {
	return rng.Uint64()
}

// sortedEmission collects the keys (the benign append form), sorts
// them, and only then emits — the canonical fix for map-order leaks.
func sortedEmission(t *tracer, m map[int]int64) {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		t.Emit(fmt.Sprintf("%d=%d", k, m[k]))
	}
}

// intAccumulation is order-insensitive: integer addition commutes.
func intAccumulation(m map[int]int64) int64 {
	var s int64
	for _, v := range m {
		s += v
	}
	return s
}

// annotatedException shows the suppression form the driver honors: the
// directive names the analyzer and gives a reason.
func annotatedException() time.Time {
	//lint:ignore determinism fixture demonstrates an annotated wall-clock exception
	return time.Now()
}
