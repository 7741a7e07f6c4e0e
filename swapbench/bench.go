package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"hpbd/internal/telemetry"
)

// profiledLayers are the modules whose host self time is reported, named
// after their internal/ packages. Samples in any other hpbd module go to
// "other"; see layerOf for "runtime" and "bench".
var profiledLayers = []string{
	"workload", "sim", "vm", "blockdev", "hpbd", "ib", "ramdisk",
	"telemetry", "wire", "netblock", "runtime", "bench",
}

// layerIn is what a workload's repetitions measured, as input to the
// per-layer metrics. Fields a workload does not exercise stay zero.
type layerIn struct {
	prof              *profiler
	traced            int     // profiled repetitions
	plainWall, trWall float64 // median host s of untraced / traced repetitions
	simS, simWall     float64 // virtual and host s of the simulated part
	sim               simOut  // simulated node of the last repetition
	accesses, faults  int64
	rt                [4]float64 // runtimeMetrics growth per traced repetition
	rtReqs            int64      // device requests per traced repetition
	nb                nbLayer
}

// nbLayer is the netblock client's side of the per-layer metrics.
type nbLayer struct {
	requests          int64
	allocsPerOp       float64
	stages            [telemetry.NumStages]time.Duration // sums over requests
	readLat, writeLat []time.Duration
	bytes             int64
	reps              int
	batchWall         float64
}

// inputsPerRun is how many inputs an untraced run measures. Input 0 is
// generated from --seed itself, the others from seeds derived from it.
// The quick sort's virtual and host time vary by several percent from one
// random input to the next, so a run reports the mean over a fixed set of
// inputs rather than one input's figure.
const inputsPerRun = 16

// inputSeeds returns the seeds of a run's inputs.
func inputSeeds(seed int64) []int64 {
	seeds := []int64{seed}
	rnd := rand.New(rand.NewSource(seed))
	for len(seeds) < inputsPerRun {
		seeds = append(seeds, rnd.Int63())
	}
	return seeds
}

// runs drives a workload's repetitions and keeps what every workload
// measures: set-up and host times, the virtual results of each input, and
// the runtime counters of traced repetitions.
type runs struct {
	rep    *report
	name   string
	seeds  []int64
	ins    []perInput
	prof   *profiler // nil in an untraced run
	setups []float64
	trWall []float64
	rt     [4]float64 // runtimeMetrics growth, summed over traced repetitions
}

// perInput collects one input's repetitions.
type perInput struct {
	ran   bool
	walls []float64 // untraced host times
	virt  simVirt
}

func newRuns(name string, seed int64, traced bool) *runs {
	rs := &runs{rep: &report{}, name: name, seeds: inputSeeds(seed)}
	rs.ins = make([]perInput, len(rs.seeds))
	if traced {
		rs.prof = newProfiler()
	}
	return rs
}

// repeat calls run until the window has passed. Untraced, it cycles
// through the inputs, running each at least once and input 0 at least
// twice, so every run has a same-seed repetition to compare. Traced, it
// runs input 0 only, alternating untraced and traced repetitions (at
// least minReps of each), so the tracing overhead is measured on the same
// input and machine state.
//
// Every repetition starts from a collected heap, as testing.B does, so
// the previous repetition's garbage is not collected inside its timing.
func (rs *runs) repeat(window time.Duration, run func(input int, t *tracer) error) error {
	start := time.Now()
	for n := 0; ; n++ {
		if time.Since(start) >= window && ((rs.prof != nil && n >= 2*minReps) || (rs.prof == nil && n > inputsPerRun)) {
			return nil
		}
		input, t := n%inputsPerRun, newTracer(nil)
		if rs.prof != nil {
			input = 0
			if n%2 == 1 {
				t = newTracer(rs.prof)
			}
		}
		runtime.GC()
		if err := run(input, t); err != nil {
			return err
		}
	}
}

// record books one repetition of input i and checks that its virtual
// results equal those of the input's earlier repetitions.
func (rs *runs) record(i int, t *tracer, setup, wall time.Duration, virt simVirt) {
	rs.setups = append(rs.setups, setup.Seconds())
	in := &rs.ins[i]
	if in.ran {
		rs.rep.check(virt == in.virt, "%s seed %d: virtual results differ between repetitions: %+v vs %+v", rs.name, rs.seeds[i], virt, in.virt)
	}
	in.ran, in.virt = true, virt
	if t.prof == nil {
		in.walls = append(in.walls, wall.Seconds())
		return
	}
	rs.trWall = append(rs.trWall, wall.Seconds())
	for k := range rs.rt {
		rs.rt[k] += t.deltas[k]
	}
}

// endToEnd returns wall_s (median over every untraced repetition), setup_s
// (median over every set-up) and sim_s (mean over the inputs that ran).
func (rs *runs) endToEnd(unit string) []metric {
	var walls []float64
	var simS float64
	var n int
	for i, in := range rs.ins {
		if !in.ran {
			continue
		}
		fmt.Printf("input %d seed %d: sim_s %.9f (virtual), wall_s %v (host)\n", i, rs.seeds[i], in.virt.simS, in.walls)
		walls = append(walls, in.walls...)
		simS += in.virt.simS
		n++
	}
	return []metric{
		{name: "wall_s", value: median(walls), unit: "s", clock: "host", base: fmt.Sprintf("%s, median of %d repetitions", unit, len(walls))},
		{name: "setup_s", value: median(rs.setups), unit: "s", clock: "host", base: fmt.Sprintf("median of %d set-ups", len(rs.setups))},
		{name: "sim_s", value: simS / float64(n), unit: "s", clock: "virtual", base: fmt.Sprintf("%s, mean over %d inputs", unit, n)},
	}
}

// traced returns the number of traced repetitions and the runtime counter
// growth per traced repetition.
func (rs *runs) traced() (int, [4]float64) {
	rt := rs.rt
	for k := range rt {
		rt[k] /= float64(len(rs.trWall))
	}
	return len(rs.trWall), rt
}

func benchSim(name string, seed int64, window time.Duration, traced bool) (*report, error) {
	rs := newRuns(name, seed, traced)
	var last *simRep
	err := rs.repeat(window, func(i int, t *tracer) error {
		r, err := runSim(name, rs.seeds[i], t)
		if err != nil {
			return err
		}
		rs.rep.attempted += r.out.virt.requests
		rs.rep.failed += r.out.virt.errors
		if r.out.virt.errors != 0 {
			rs.rep.problems = append(rs.rep.problems, fmt.Sprintf("%s seed %d: %d swap requests failed", name, rs.seeds[i], r.out.virt.errors))
		}
		rs.rep.check(r.runErr == nil, "%s seed %d: %v", name, rs.seeds[i], r.runErr)
		rs.rep.check(r.sorted, "%s seed %d: output not sorted", name, rs.seeds[i])
		rs.record(i, t, r.setup, r.wall, r.out.virt)
		last = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep := rs.rep
	if !traced {
		// The seed must reach the generator: another seed, another run.
		rep.check(rs.ins[0].virt.simS != rs.ins[1].virt.simS, "%s: seeds %d and %d give the same sim_s", name, rs.seeds[0], rs.seeds[1])
	}
	rep.e2e = rs.endToEnd("the workload")
	if traced {
		n, rt := rs.traced()
		wall, simS := median(rs.ins[0].walls), rs.ins[0].virt.simS
		rep.layer = layerMetrics(layerIn{
			prof: rs.prof, traced: n,
			plainWall: wall, trWall: median(rs.trWall),
			simS: simS, simWall: wall,
			sim: last.out, accesses: last.accesses, faults: last.faultsIn,
			rt: rt, rtReqs: last.out.virt.requests,
		})
	}
	return rep, nil
}

func benchNetblock(seed int64, window time.Duration, traced bool) (*report, error) {
	rs := newRuns("netblock", seed, traced)
	shadow := make([]byte, nbArea)
	var last *nbRep
	var nb nbLayer
	var replayWall []float64
	var rtReqs, allocs int64
	err := rs.repeat(window, func(i int, t *tracer) error {
		r, err := runNetblock(rs.seeds[i], shadow, t)
		if err != nil {
			return err
		}
		rs.rep.attempted += r.attempted
		rs.rep.failed += r.failed
		if r.failed != 0 {
			rs.rep.problems = append(rs.rep.problems, fmt.Sprintf("netblock seed %d: %d of %d operations failed or read wrong data", rs.seeds[i], r.failed, r.attempted))
		}
		rs.record(i, t, r.setup, r.wall, r.replay.virt)
		replayWall = append(replayWall, r.replayWall.Seconds())
		nb.readLat = append(nb.readLat, r.readLat...)
		nb.writeLat = append(nb.writeLat, r.writeLat...)
		nb.bytes += r.bytes
		nb.reps++
		if t.prof != nil {
			// The traced phase's device requests: the TCP batch and
			// read-back, then the replay's fill and batch.
			rtReqs += r.requests + nbArea/nbFill + nbArea/nbFill + r.replay.virt.requests
			allocs += int64(r.allocs)
			nb.requests += r.requests
			for s := range nb.stages {
				nb.stages[s] += r.stages[s]
			}
			last = r
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep := rs.rep
	rep.e2e = rs.endToEnd(fmt.Sprintf("batch of %d requests", nbOps))
	if traced {
		n, rt := rs.traced()
		nb.allocsPerOp = ratio(float64(allocs), float64(nb.requests))
		nb.batchWall = median(append(append([]float64(nil), rs.ins[0].walls...), rs.trWall...))
		rep.layer = layerMetrics(layerIn{
			prof: rs.prof, traced: n,
			plainWall: median(rs.ins[0].walls), trWall: median(rs.trWall),
			simS: rs.ins[0].virt.simS, simWall: median(replayWall),
			sim: last.replay,
			rt:  rt, rtReqs: rtReqs / int64(n),
			nb: nb,
		})
	}
	return rep, nil
}

// layerMetrics builds the per-layer list. Every workload reports every
// metric; a layer the workload does not run reads 0.
func layerMetrics(in layerIn) []metric {
	var ms []metric
	add := func(name string, v float64, unit, clock, base string) {
		ms = append(ms, metric{name: name, value: v, unit: unit, clock: clock, base: base})
	}
	otherNS, others := otherLayers(in.prof)
	self := func(layer string) float64 {
		ns := in.prof.selfNS[layer]
		if layer == "other" {
			ns = otherNS
		}
		return float64(ns) / 1e9 / float64(in.traced)
	}
	perRep := fmt.Sprintf("CPU profile, mean of %d repetitions", in.traced)
	v := in.sim.virt
	c := in.sim.counters
	st := in.sim.vm
	us := func(ns int64) float64 { return float64(ns) / 1e3 }

	add("workload.accesses", float64(in.accesses), "count", "", "PagedArray.Access calls")
	add("workload.faults_in", float64(in.faults), "count", "", "accesses that faulted")
	add("workload.self_s", self("workload"), "s", "host", perRep)
	add("workload.ns_per_access", ratio(in.plainWall*1e9, float64(in.accesses)), "ns", "host",
		fmt.Sprintf("wall_s over %d accesses", in.accesses))

	add("sim.self_s", self("sim"), "s", "host", perRep)
	add("sim.virt_per_host", ratio(in.simS, in.simWall), "ratio", "", fmt.Sprintf("%.6f virtual s over %.6f host s", in.simS, in.simWall))

	add("runtime.allocs_per_req", ratio(in.rt[0], float64(in.rtReqs)), "count", "", fmt.Sprintf("%.0f allocs over %d device requests", in.rt[0], in.rtReqs))
	add("runtime.alloc_bytes_per_req", ratio(in.rt[1], float64(in.rtReqs)), "B", "", fmt.Sprintf("%.0f bytes over %d device requests", in.rt[1], in.rtReqs))
	add("runtime.gc_cycles", in.rt[2], "count", "", "per repetition")
	add("runtime.gc_cpu_s", in.rt[3], "s", "host", "per repetition, runtime/metrics estimate")
	add("runtime.self_s", self("runtime"), "s", "host", perRep)

	add("vm.faults", float64(st.Faults), "count", "", "")
	add("vm.swapins", float64(st.SwapIns), "count", "", "")
	add("vm.swapouts", float64(st.SwapOuts), "count", "", "")
	add("vm.readahead_pages", float64(st.ReadAheadPages), "count", "", "")
	add("vm.readahead_useful_ratio", ratio(float64(st.ReadAheadUseful), float64(st.ReadAheadPages)), "ratio", "",
		fmt.Sprintf("%d useful over %d read ahead", st.ReadAheadUseful, st.ReadAheadPages))
	add("vm.direct_reclaims", float64(st.DirectReclaims), "count", "", "")
	add("vm.alloc_stalls", float64(st.AllocStalls), "count", "", "")
	add("vm.self_s", self("vm"), "s", "host", perRep)

	add("blockdev.reqs", float64(v.requests), "count", "", "requests dispatched to the device")
	add("blockdev.merges", float64(c["blk.merges"]), "count", "", "")
	add("blockdev.req_kb_mean", ratio(float64(v.requestBytes)/1024, float64(v.requests)), "KB", "",
		fmt.Sprintf("%d bytes over %d requests", v.requestBytes, v.requests))
	add("blockdev.queue_wait_p99_ms", float64(in.sim.blkWaitP99)/1e6, "ms", "virtual", "blk.queue.wait histogram bucket")
	add("blockdev.self_s", self("blockdev"), "s", "host", perRep)

	add("hpbd.reqs", float64(v.requests), "count", "", "")
	add("hpbd.errors", float64(v.errors+c["hpbd.remote_errors"]), "count", "", "")
	add("hpbd.retries", float64(c["hpbd.retries"]), "count", "", "")
	add("hpbd.credit_stalls", float64(c["hpbd.credit_stalls"]), "count", "", "")
	add("hpbd.pool_alloc_waits", float64(c["pool.alloc.waits"]), "count", "", "")
	add("hpbd.doorbells", float64(c["hpbd.doorbells"]), "count", "", "")
	add("hpbd.self_s", self("hpbd"), "s", "host", perRep)
	add("hpbd.read_p50_us", us(int64(v.readP50)), "us", "virtual", fmt.Sprintf("%d read requests", v.readN))
	add("hpbd.read_p99_us", us(int64(v.readP99)), "us", "virtual", fmt.Sprintf("%d read requests", v.readN))
	add("hpbd.write_p50_us", us(int64(v.writeP50)), "us", "virtual", fmt.Sprintf("%d write requests", v.writeN))
	add("hpbd.write_p99_us", us(int64(v.writeP99)), "us", "virtual", fmt.Sprintf("%d write requests", v.writeN))
	for s := telemetry.Stage(0); s < telemetry.NumStages; s++ {
		add("hpbd.stage."+stageName(s)+"_us", ratio(us(int64(v.stageSum[s])), float64(v.requests)), "us", "virtual",
			fmt.Sprintf("mean over %d requests", v.requests))
	}

	add("ib.qp_cache_miss", float64(c["ib.qp_cache_miss"]), "count", "", "")
	add("ib.self_s", self("ib"), "s", "host", perRep)
	add("ramdisk.self_s", self("ramdisk"), "s", "host", perRep)
	add("telemetry.self_s", self("telemetry"), "s", "host", perRep)
	add("wire.self_s", self("wire"), "s", "host", perRep)

	nb := in.nb
	add("netblock.requests", float64(nb.requests), "count", "", "client requests in the traced batches")
	add("netblock.allocs_per_op", nb.allocsPerOp, "count", "", fmt.Sprintf("allocs over %d requests", nb.requests))
	add("netblock.self_s", self("netblock"), "s", "host", perRep)
	for _, s := range []telemetry.Stage{telemetry.StageCreditStall, telemetry.StageSend, telemetry.StageReply, telemetry.StageDrain} {
		add("netblock.stage."+stageName(s)+"_us", ratio(float64(nb.stages[s].Nanoseconds())/1e3, float64(nb.requests)), "us", "host",
			fmt.Sprintf("mean over %d requests", nb.requests))
	}
	rd := fmt.Sprintf("%d reads", len(nb.readLat))
	wr := fmt.Sprintf("%d writes", len(nb.writeLat))
	add("netblock.read_p50_us", us(int64(quantile(nb.readLat, 0.50))), "us", "host", rd)
	add("netblock.read_p99_us", us(int64(quantile(nb.readLat, 0.99))), "us", "host", rd)
	add("netblock.write_p50_us", us(int64(quantile(nb.writeLat, 0.50))), "us", "host", wr)
	add("netblock.write_p99_us", us(int64(quantile(nb.writeLat, 0.99))), "us", "host", wr)
	add("netblock.mb_per_s", ratio(float64(nb.bytes)/1e6/float64(nb.reps), nb.batchWall), "MB/s", "host",
		fmt.Sprintf("mean batch bytes over median batch wall, %d batches", nb.reps))

	add("other.self_s", self("other"), "s", "host", perRep+", modules "+strings.Join(others, " "))
	add("bench.self_s", self("bench"), "s", "host", perRep)
	add("trace.overhead_s", in.trWall-in.plainWall, "s", "host",
		fmt.Sprintf("median traced %.6f s - median untraced %.6f s", in.trWall, in.plainWall))
	var charged int64
	for _, ns := range in.prof.selfNS {
		charged += ns
	}
	add("profile.samples", float64(in.prof.samples), "count", "",
		fmt.Sprintf("%.6f CPU s in all; the layers' self time sums to %.6f", float64(in.prof.totalNS)/1e9, float64(charged)/1e9))
	return ms
}

func stageName(s telemetry.Stage) string { return strings.ReplaceAll(s.String(), "-", "_") }

// otherLayers returns the CPU nanoseconds and names of profiled hpbd
// modules outside profiledLayers.
func otherLayers(prof *profiler) (int64, []string) {
	var ns int64
	var names []string
	for layer, v := range prof.selfNS {
		if !slices.Contains(profiledLayers, layer) {
			ns += v
			names = append(names, layer)
		}
	}
	sort.Strings(names)
	return ns, names
}
