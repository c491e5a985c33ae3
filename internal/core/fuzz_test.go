package core

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/logp"
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

// FuzzThm1CycleCounts checks the Theorem 1 replay's per-cycle counts
// against a naive recount. The fuzz bytes draw the parameters and, per
// guest, a list of Sends (never to itself), Computes and WaitUntils,
// followed by one Recv per message addressed to the guest, so no run
// deadlocks. A wrapping Script logs every Send's instant, which is the
// Now of the guest's next Next call. The test recounts each cycle's
// fan-out and fan-in from that log with maps: per guest under Fold 1,
// per host and cross-host traffic only under a larger Fold, and per
// destination guest at every Fold for the overload count.
func FuzzThm1CycleCounts(f *testing.F) {
	// TestThm1CountsOlderCycleAfterNewer's program: P 4, L 16, G 2, o 1.
	f.Add([]byte{2, 14, 0, 0, 0, 0, 0, 2, 5, 0, 0, 1, 0, 0, 2, 1, 2, 6, 1, 0, 0})
	// Folded by 2, with a WaitUntil past several cycles.
	f.Add([]byte{6, 30, 3, 1, 5, 1, 0, 0, 3, 1, 1, 4, 2, 3, 90, 2, 0, 7, 3, 1, 1, 5, 0, 2, 0, 2, 9})
	// A hot spot: every guest sends to guest 0 at once.
	hot := []byte{14, 8, 2, 1, 0, 0}
	for g := byte(1); g < 16; g++ {
		hot = append(hot, g, 0, 15-g, g, 1, 15-g)
	}
	f.Add(hot)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*128 {
			data = data[:3*128]
		}
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		p := 2 + next()%15
		l := int64(2 + next()%63)
		g := 2 + int64(next())%(l-1)
		o := 1 + int64(next())%g
		cycleLen := int64(next()) % (l + 1)
		fold := 1 + next()%4
		if p%fold != 0 {
			fold = 1
		}
		lp := logp.Params{P: p, L: l, O: o, G: g}

		sc := &countingScript{ops: make([][]logp.ScriptOp, p), pc: make([]int, p), at: make([][]int64, p)}
		inbound := make([]int, p)
		for len(data) >= 3 {
			src, kind, arg := next()%p, next()%4, next()
			switch kind {
			case 0, 1:
				dst := (src + 1 + arg%(p-1)) % p
				sc.ops[src] = append(sc.ops[src], logp.ScriptOp{Kind: logp.ScriptSend, Dst: dst})
				inbound[dst]++
			case 2:
				sc.ops[src] = append(sc.ops[src], logp.ScriptOp{Kind: logp.ScriptCompute, N: int64(arg % 16)})
			case 3:
				sc.ops[src] = append(sc.ops[src], logp.ScriptOp{Kind: logp.ScriptWait, N: int64(arg)})
			}
		}
		for id, n := range inbound {
			for ; n > 0; n-- {
				sc.ops[id] = append(sc.ops[id], logp.ScriptOp{Kind: logp.ScriptRecv})
			}
		}

		sim := &LogPOnBSP{LogP: lp, CycleLen: cycleLen, Fold: fold}
		res, err := sim.RunScript(sc)
		if err != nil {
			t.Fatalf("%v, CycleLen %d, Fold %d: %v", lp, cycleLen, fold, err)
		}

		if cycleLen == 0 {
			cycleLen = l / 2
		}
		type slot struct {
			cycle int64
			who   int
		}
		sent, rcvd, fanIn := map[slot]int64{}, map[slot]int64{}, map[slot]int64{}
		var msgs int64
		for id := range sc.ops {
			k := 0
			for _, op := range sc.ops[id] {
				if op.Kind != logp.ScriptSend {
					continue
				}
				cycle := sc.at[id][k] / cycleLen
				k++
				msgs++
				if cycle >= int64(len(res.CycleH)) {
					t.Fatalf("guest %d submitted in cycle %d, but the result has %d cycles", id, cycle, len(res.CycleH))
				}
				fanIn[slot{cycle, op.Dst}]++
				if fold == 1 {
					sent[slot{cycle, id}]++
					rcvd[slot{cycle, op.Dst}]++
				} else if id/fold != op.Dst/fold {
					sent[slot{cycle, id / fold}]++
					rcvd[slot{cycle, op.Dst / fold}]++
				}
			}
		}
		wantH := make([]int64, len(res.CycleH))
		for _, counts := range []map[slot]int64{sent, rcvd} {
			for s, n := range counts {
				wantH[s.cycle] = max(wantH[s.cycle], n)
			}
		}
		overloaded := map[int64]bool{}
		for s, n := range fanIn {
			if n > lp.Capacity() {
				overloaded[s.cycle] = true
			}
		}
		desc := fmt.Sprintf("%v, CycleLen %d, Fold %d", lp, cycleLen, fold)
		for k, h := range wantH {
			if res.CycleH[k] != h {
				t.Fatalf("%s: cycle %d has h %d, recount %d", desc, k, res.CycleH[k], h)
			}
		}
		if want := slices.Max(append(wantH, 0)); res.MaxCycleH != want {
			t.Fatalf("%s: MaxCycleH %d, recount %d", desc, res.MaxCycleH, want)
		}
		if res.CapacityViolations != int64(len(overloaded)) {
			t.Fatalf("%s: %d capacity violations, recount %d", desc, res.CapacityViolations, len(overloaded))
		}
		if res.MessagesSent != msgs {
			t.Fatalf("%s: %d messages sent, recount %d", desc, res.MessagesSent, msgs)
		}
	})
}

// countingScript runs a fixed operation list per guest and logs the
// instant of each of its Sends in at.
type countingScript struct {
	ops [][]logp.ScriptOp
	pc  []int
	at  [][]int64
}

func (s *countingScript) Active(int) bool { return true }

func (s *countingScript) Next(id int, prev logp.ScriptResult) logp.ScriptOp {
	k := s.pc[id]
	if k > 0 && s.ops[id][k-1].Kind == logp.ScriptSend {
		s.at[id] = append(s.at[id], prev.Now)
	}
	if k == len(s.ops[id]) {
		return logp.ScriptOp{Kind: logp.ScriptHalt}
	}
	s.pc[id]++
	return s.ops[id][k]
}
