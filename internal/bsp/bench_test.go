package bsp

import "testing"

// BenchmarkBSPRun measures the machine's per-run overhead on a
// communication-heavy workload: rounds supersteps of an all-to-all
// exchange on p processors. The barrier scratch (the input pools and
// the per-processor outboxes) is reused across supersteps, so
// steady-state allocations track the message volume, not the
// superstep count.
func BenchmarkBSPRun(b *testing.B) { benchRun(b, 16, 15, 8) }

// BenchmarkBSPRunP1024 is BenchmarkBSPRun's large-p variant: each of
// 1024 processors sends to its next 4 ids per superstep.
func BenchmarkBSPRunP1024(b *testing.B) { benchRun(b, 1024, 4, 8) }

// benchRun times Run of rounds supersteps in which each of p
// processors sends to its next fan ids, computes, syncs and drains its
// pool.
func benchRun(b *testing.B, p, fan, rounds int) {
	m := NewMachine(Params{P: p, G: 2, L: 32})
	prog := func(pr Proc) {
		n := pr.P()
		for k := 0; k < rounds; k++ {
			for d := 1; d <= fan; d++ {
				pr.Send((pr.ID()+d)%n, 0, int64(k), 0)
			}
			pr.Compute(int64(n))
			pr.Sync()
			for {
				if _, ok := pr.Recv(); !ok {
					break
				}
			}
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Run(prog); err != nil {
			b.Fatal(err)
		}
	}
}
