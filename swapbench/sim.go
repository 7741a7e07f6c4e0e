package main

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"hpbd/internal/cluster"
	"hpbd/internal/sim"
	"hpbd/internal/telemetry"
	"hpbd/internal/vm"
	"hpbd/internal/workload"
)

// Paper-scale sizes, as in internal/experiments: 512 MB of local memory,
// a 1 GB swap area and 256 Mi four-byte integers for the quick sort (2x
// local memory). The benchmark divides them by scale.
const (
	paperMem      = 512 << 20
	paperSwap     = 1 << 30
	paperQsortInt = 256 << 20
	scale         = 128
)

// pagechurn shape: one element per page over 2x local memory, uniformly
// random touches, 30% writes, and a small fixed compute charge per touch.
const (
	churnTouches  = 25000
	churnWriteP   = 0.3
	churnCPUTouch = 1 * sim.Microsecond
)

// flightRing retains every swap request of one repetition, so the
// latency quantiles are exact order statistics rather than histogram
// buckets. A repetition that overflows it fails instead of reporting a
// truncated distribution.
const flightRing = 1 << 16

// simRep is one repetition of a simulated workload: its host timings,
// its virtual results and the layer counters read after it ran.
type simRep struct {
	setup, wall time.Duration
	out         simOut
	accesses    int64
	faultsIn    int64
	runErr      error // the workload's own error
	sorted      bool
}

// simOut is what a simulated node reports after a run: the virtual
// results and the layer counters.
type simOut struct {
	virt       simVirt
	vm         vm.Stats
	counters   map[string]int64
	blkWaitP99 sim.Duration
}

// simVirt is everything a repetition reports on the virtual clock. Two
// repetitions with one seed must produce equal values.
type simVirt struct {
	simS                   float64
	readN, writeN          int
	readP50, readP99       sim.Duration
	writeP50, writeP99     sim.Duration
	requests, requestBytes int64
	errors                 int64
	stageSum               [telemetry.NumStages]sim.Duration
}

// runSim builds a one-server HPBD node through cluster.Build, generates
// the workload's inputs from seed and runs it to completion.
func runSim(name string, seed int64, tr *tracer) (*simRep, error) {
	rep := &simRep{}
	t0 := time.Now()
	env := sim.NewEnv()
	tel := telemetry.New(env)
	lc := tel.EnableLifecycle(flightRing)
	node, err := cluster.Build(env, cluster.Config{
		MemBytes:  paperMem / scale,
		Swap:      cluster.SwapHPBD,
		SwapBytes: paperSwap / scale,
		Servers:   1,
		Telemetry: tel,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster.Build: %w", err)
	}
	rnd := rand.New(rand.NewSource(seed))
	var run func(p *sim.Proc) error
	var arr *workload.PagedArray
	var qs *workload.Quicksort
	switch name {
	case "qsort":
		qs = workload.NewQuicksort(node.VM, "qsort", paperQsortInt/scale, rnd)
		arr = qs.Array()
		run = qs.Run
	case "pagechurn":
		pages := 2 * paperMem / scale / vm.PageSize
		arr = workload.NewPagedArray(node.VM, "churn", pages, vm.PageSize, churnCPUTouch)
		idx := make([]int32, churnTouches)
		write := make([]bool, churnTouches)
		for i := range idx {
			idx[i] = int32(rnd.Intn(pages))
			write[i] = rnd.Float64() < churnWriteP
		}
		run = func(p *sim.Proc) error {
			for i, pg := range idx {
				if err := arr.Access(p, int(pg), write[i]); err != nil {
					return err
				}
			}
			arr.Flush(p)
			return nil
		}
	default:
		return nil, fmt.Errorf("unknown sim workload %q", name)
	}
	rep.setup = time.Since(t0)

	if err := tr.begin(); err != nil {
		return nil, err
	}
	t1 := time.Now()
	var elapsed sim.Duration
	var runErr error
	env.Go("workload", func(p *sim.Proc) {
		node.Ready.Wait(p)
		start := p.Now()
		runErr = run(p)
		elapsed = p.Now().Sub(start)
	})
	env.Run()
	env.Close()
	rep.wall = time.Since(t1)
	if err := tr.end(); err != nil {
		return nil, err
	}
	if err := ringHeld(lc); err != nil {
		return nil, err
	}
	rep.runErr = runErr
	rep.sorted = qs == nil || qs.Sorted()
	rep.accesses, rep.faultsIn = arr.Accesses, arr.FaultsIn
	rep.out = collect(node, tel, lc, elapsed, 0)
	return rep, nil
}

// collect reads a finished node's results, skipping the first skip
// lifecycle records (set-up traffic).
func collect(node *cluster.Node, tel *telemetry.Registry, lc *telemetry.Lifecycle, elapsed sim.Duration, skip int) simOut {
	out := simOut{
		virt:     recordsVirt(lc, elapsed, skip),
		vm:       node.VM.Stats(),
		counters: map[string]int64{},
	}
	tel.VisitCounters(func(n string, v int64) { out.counters[n] = v })
	tel.VisitHistograms(func(n string, h *telemetry.Histogram) {
		if n == "blk.queue.wait" {
			out.blkWaitP99 = h.Quantile(0.99)
		}
	})
	return out
}

// ringHeld fails a run whose requests overflowed the flight ring.
func ringHeld(lc *telemetry.Lifecycle) error {
	if f := lc.Flight(); f.Total() > uint64(f.Cap()) {
		return fmt.Errorf("%d requests overflow the %d-entry flight ring", f.Total(), f.Cap())
	}
	return nil
}

// recordsVirt reads the virtual results of a run from its lifecycle
// records, skipping the first skip (set-up traffic).
func recordsVirt(lc *telemetry.Lifecycle, elapsed sim.Duration, skip int) simVirt {
	var reads, writes []sim.Duration
	v := simVirt{simS: elapsed.Seconds()}
	recs := lc.Flight().Records()[skip:]
	for i := range recs {
		r := &recs[i]
		v.requests++
		v.requestBytes += int64(r.Bytes)
		for s, d := range r.Stages {
			v.stageSum[s] += d
		}
		if r.Err {
			v.errors++
		}
		if r.Write {
			writes = append(writes, r.Total())
		} else {
			reads = append(reads, r.Total())
		}
	}
	v.readN, v.writeN = len(reads), len(writes)
	v.readP50, v.readP99 = quantile(reads, 0.50), quantile(reads, 0.99)
	v.writeP50, v.writeP99 = quantile(writes, 0.50), quantile(writes, 0.99)
	return v
}

// quantile returns the nearest-rank q-quantile of xs (sorted in place);
// 0 for an empty slice.
func quantile[T ~int64](xs []T, q float64) T {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	rank := int(q*float64(len(xs))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(xs) {
		rank = len(xs) - 1
	}
	return xs[rank]
}
