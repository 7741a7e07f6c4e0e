package workload_test

import (
	"math/rand"
	"testing"

	"hpbd/internal/cluster"
	"hpbd/internal/sim"
	"hpbd/internal/workload"
)

// BenchmarkQuicksortAccess sorts 8 MB of int32s in 4 MB of local memory
// on a one-server HPBD node, Fig. 7's HPBD row at 1/128 scale. It reports
// the host time per paged-array access (node set-up excluded) and the
// sort's virtual run time, which must not change with host-side work.
func BenchmarkQuicksortAccess(b *testing.B) {
	var accesses int64
	var virt sim.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		env := sim.NewEnv()
		node, err := cluster.Build(env, cluster.Config{
			MemBytes:  4 << 20,
			Swap:      cluster.SwapHPBD,
			SwapBytes: 8 << 20,
			Servers:   1,
		})
		if err != nil {
			b.Fatal(err)
		}
		q := workload.NewQuicksort(node.VM, "qs", 2<<20, rand.New(rand.NewSource(1)))
		var runErr error
		env.Go("qs", func(p *sim.Proc) {
			node.Ready.Wait(p)
			start := p.Now()
			runErr = q.Run(p)
			virt += p.Now().Sub(start)
		})
		b.StartTimer()
		env.Run()
		b.StopTimer()
		env.Close()
		if runErr != nil {
			b.Fatal(runErr)
		}
		if !q.Sorted() {
			b.Fatal("output not sorted")
		}
		accesses += q.Array().Accesses
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(accesses), "ns/access")
	b.ReportMetric(float64(virt)/float64(b.N), "virt-ns/op")
}
