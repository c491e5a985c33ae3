package core

import (
	"sort"
	"testing"
)

// FuzzSummaryReduce checks that the run-length summary algebra used by
// Theorem 2's s-computation recovers the exact maximum key
// multiplicity for arbitrary sorted sequences with trailing dummies,
// under arbitrary block splits.
func FuzzSummaryReduce(f *testing.F) {
	f.Add([]byte{3, 1, 1, 2, 5, 5, 5}, uint8(2))
	f.Add([]byte{0}, uint8(1))
	f.Add([]byte{7, 7, 7, 7}, uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, blocksRaw uint8) {
		blocks := int(blocksRaw%8) + 1
		keys := make([]int64, 0, len(data))
		for _, b := range data {
			if len(keys) >= 96 {
				break
			}
			keys = append(keys, int64(b%16))
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		// Pad to a multiple of blocks with dummies (-1 sorts after,
		// conceptually, since we append them at the end like the
		// router does with key p).
		for len(keys)%blocks != 0 {
			keys = append(keys, -1)
		}
		size := len(keys) / blocks
		if size == 0 {
			return
		}
		sums := make([]runSummary, blocks)
		for b := 0; b < blocks; b++ {
			sums[b] = buildSummary(keys[b*size:(b+1)*size], -1)
		}
		for k := 1; k < blocks; k <<= 1 {
			for i := 0; i+k < blocks; i += 2 * k {
				sums[i] = mergeSummary(sums[i], sums[i+k])
			}
		}
		counts := map[int64]int64{}
		var want int64
		for _, k := range keys {
			if k < 0 {
				continue
			}
			counts[k]++
			if counts[k] > want {
				want = counts[k]
			}
		}
		if sums[0].maxRun != want {
			t.Fatalf("reduced maxRun = %d, want %d (keys %v, blocks %d)", sums[0].maxRun, want, keys, blocks)
		}
	})
}
