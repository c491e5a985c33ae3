package logp

import (
	"testing"
	"unsafe"
)

// The arena's contract has three load-bearing properties: records are
// handed out densely in chunk order (the cache-friendly id-order
// layout), reset re-hands the identical records in the identical order
// without growing (positional reuse), and a machine at its high-water
// size allocates nothing. These tests pin each one directly on procArena,
// below the engine.

func TestArenaChunkGrowth(t *testing.T) {
	var a procArena
	const n = 2*(1<<procChunkBits) + 3
	seen := make(map[*proc]bool, n)
	for i := 0; i < n; i++ {
		r := a.alloc()
		if seen[r] {
			t.Fatalf("alloc %d re-handed a live record", i)
		}
		seen[r] = true
	}
	if a.size() != n {
		t.Fatalf("size() = %d after %d allocs", a.size(), n)
	}
	if len(a.chunks) != 3 {
		t.Fatalf("%d allocs grew %d chunks, want 3", n, len(a.chunks))
	}
}

// TestArenaDenseLayout checks records within a chunk are contiguous in
// hand-out order: consecutive allocs sit exactly one record apart, so
// an id-order sweep over a cold arena walks consecutive cache lines.
func TestArenaDenseLayout(t *testing.T) {
	var a procArena
	prev := a.alloc()
	for i := 1; i < 1<<procChunkBits; i++ {
		cur := a.alloc()
		if d := uintptr(unsafe.Pointer(cur)) - uintptr(unsafe.Pointer(prev)); d != unsafe.Sizeof(proc{}) {
			t.Fatalf("alloc %d is %d bytes past its predecessor, want %d", i, d, unsafe.Sizeof(proc{}))
		}
		prev = cur
	}
}

// TestProcRecordSize pins the proc record, which an accepted message
// touches twice (sender and destination). It changes only on purpose.
func TestProcRecordSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("record sizes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(proc{}); got != 176 {
		t.Fatalf("proc is %d bytes, want 176: ROADMAP item 8 and the Script doc comment quote the record size; update them with this test", got)
	}
}

func TestArenaResetReuse(t *testing.T) {
	var a procArena
	const n = (1 << procChunkBits) + 17
	first := make([]*proc, n)
	for i := range first {
		first[i] = a.alloc()
	}
	a.reset()
	if a.size() != 0 {
		t.Fatalf("size() = %d after reset, want 0", a.size())
	}
	chunks := len(a.chunks)
	for i := range first {
		if got := a.alloc(); got != first[i] {
			t.Fatalf("post-reset alloc %d handed a different record", i)
		}
	}
	if len(a.chunks) != chunks {
		t.Fatalf("reset-then-realloc grew chunks %d -> %d", chunks, len(a.chunks))
	}
}

// TestArenaSteadyStateAllocs pins the arena's whole point: once at its
// high-water size, a reset-and-refill cycle allocates nothing.
func TestArenaSteadyStateAllocs(t *testing.T) {
	var a procArena
	const n = 3 * (1 << procChunkBits) / 2
	for i := 0; i < n; i++ {
		a.alloc()
	}
	avg := testing.AllocsPerRun(10, func() {
		a.reset()
		for i := 0; i < n; i++ {
			a.alloc()
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state reset/refill allocates %.1f objects, want 0", avg)
	}
}
