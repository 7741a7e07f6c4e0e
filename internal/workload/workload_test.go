package workload

import (
	"math"
	"math/rand"
	"testing"

	"hpbd/internal/blockdev"
	"hpbd/internal/sim"
	"hpbd/internal/vm"
)

// instantDriver completes every request after a small fixed delay.
type instantDriver struct {
	sectors int64
	delay   sim.Duration
}

func (d *instantDriver) Name() string   { return "fastswap" }
func (d *instantDriver) Sectors() int64 { return d.sectors }
func (d *instantDriver) Submit(p *sim.Proc, r *blockdev.Request) {
	if d.delay > 0 {
		p.Sleep(d.delay)
	}
	r.Complete(nil)
}

func newVM(memPages, swapPages int) (*sim.Env, *vm.System) {
	env := sim.NewEnv()
	cfg := vm.DefaultConfig(int64(memPages) * vm.PageSize)
	sys := vm.NewSystem(env, cfg)
	q := blockdev.NewQueue(env, cfg.Host, &instantDriver{
		sectors: int64(swapPages) * vm.SectorsPerPage,
		delay:   30 * sim.Microsecond,
	})
	sys.AddSwap(q, 0)
	return env, sys
}

func TestTestswapInMemoryTiming(t *testing.T) {
	env, sys := newVM(4096, 8192) // 16 MB memory
	ts := NewTestswap(sys, 4<<20) // 4 MB array: fits
	var elapsed sim.Duration
	env.Go("ts", func(p *sim.Proc) {
		t0 := p.Now()
		if err := ts.Run(p); err != nil {
			t.Errorf("Run: %v", err)
		}
		elapsed = p.Now().Sub(t0)
	})
	env.Run()
	env.Close()
	// 1 Mi ints at 22 ns = ~23 ms of compute plus fault costs.
	want := sim.Duration(1<<20) * TestswapCPUPerInt
	if elapsed < want || elapsed > want*2 {
		t.Errorf("in-memory testswap took %v, want ~%v", elapsed, want)
	}
	if sys.Stats().SwapOuts != 0 {
		t.Error("in-memory testswap should not swap")
	}
}

func TestTestswapOvercommitSwaps(t *testing.T) {
	env, sys := newVM(1024, 8192) // 4 MB memory
	ts := NewTestswap(sys, 8<<20) // 8 MB array
	env.Go("ts", func(p *sim.Proc) {
		if err := ts.Run(p); err != nil {
			t.Errorf("Run: %v", err)
		}
	})
	env.Run()
	env.Close()
	if sys.Stats().SwapOuts == 0 {
		t.Error("2x overcommit testswap produced no swap-outs")
	}
	// Sequential single-pass writes should produce almost no swap-ins.
	if ins := sys.Stats().SwapIns; ins > 32 {
		t.Errorf("sequential testswap swapped in %d pages; expected ~0", ins)
	}
}

func TestQuicksortSortsInMemory(t *testing.T) {
	env, sys := newVM(4096, 1024)
	q := NewQuicksort(sys, "qs", 1<<16, rand.New(rand.NewSource(7)))
	env.Go("qs", func(p *sim.Proc) {
		if err := q.Run(p); err != nil {
			t.Errorf("Run: %v", err)
		}
	})
	env.Run()
	env.Close()
	if !q.Sorted() {
		t.Error("quicksort output not sorted")
	}
	if sys.Stats().SwapOuts != 0 {
		t.Error("in-memory sort should not swap")
	}
}

func TestQuicksortSortsUnderMemoryPressure(t *testing.T) {
	// 2 MB of data in 1 MB of memory: the sort must still be correct and
	// must generate traffic in both directions.
	env, sys := newVM(256, 4096)
	q := NewQuicksort(sys, "qs", 1<<19, rand.New(rand.NewSource(11)))
	env.Go("qs", func(p *sim.Proc) {
		if err := q.Run(p); err != nil {
			t.Errorf("Run: %v", err)
		}
	})
	env.Run()
	env.Close()
	if !q.Sorted() {
		t.Error("paged quicksort output not sorted")
	}
	st := sys.Stats()
	if st.SwapOuts == 0 || st.SwapIns == 0 {
		t.Errorf("paged sort traffic: outs=%d ins=%d, want both > 0", st.SwapOuts, st.SwapIns)
	}
}

func TestQuicksortDeterministic(t *testing.T) {
	run := func() sim.Time {
		env, sys := newVM(256, 4096)
		q := NewQuicksort(sys, "qs", 1<<18, rand.New(rand.NewSource(3)))
		env.Go("qs", func(p *sim.Proc) {
			if err := q.Run(p); err != nil {
				t.Errorf("Run: %v", err)
			}
		})
		end := env.Run()
		env.Close()
		if !q.Sorted() {
			t.Error("quicksort output not sorted")
		}
		return end
	}
	if a, b := run(), run(); a != b {
		t.Errorf("identical runs finished at %v and %v", a, b)
	}
}

func TestPagedArrayChargesCPU(t *testing.T) {
	env, sys := newVM(1024, 1024)
	arr := NewPagedArray(sys, "a", 1<<16, 4, 10*sim.Nanosecond)
	var elapsed sim.Duration
	env.Go("t", func(p *sim.Proc) {
		t0 := p.Now()
		for i := 0; i < 1<<16; i++ {
			if err := arr.Access(p, i, false); err != nil {
				t.Errorf("Access: %v", err)
			}
		}
		arr.Flush(p)
		elapsed = p.Now().Sub(t0)
	})
	env.Run()
	env.Close()
	cpu := sim.Duration(1<<16) * 10 * sim.Nanosecond
	if elapsed < cpu {
		t.Errorf("elapsed %v < pure CPU %v", elapsed, cpu)
	}
	if elapsed > cpu*2 {
		t.Errorf("elapsed %v > 2x pure CPU %v (fault overhead too high for resident array)", elapsed, cpu)
	}
	if arr.Accesses != 1<<16 {
		t.Errorf("Accesses = %d", arr.Accesses)
	}
}

func TestBarnesRunsAndConservesMomentum(t *testing.T) {
	env, sys := newVM(8192, 8192)
	b := NewBarnes(sys, "barnes", 2000, 2, rand.New(rand.NewSource(5)))
	m0x, m0y, m0z := b.TotalMomentum()
	env.Go("b", func(p *sim.Proc) {
		if err := b.Run(p); err != nil {
			t.Errorf("Run: %v", err)
		}
	})
	env.Run()
	env.Close()
	m1x, m1y, m1z := b.TotalMomentum()
	// The multipole approximation is not exactly symmetric, so momentum
	// drifts at the approximation error, not machine epsilon; with
	// theta=0.6 and unit total mass it must stay tiny per step.
	drift := math.Abs(m1x-m0x) + math.Abs(m1y-m0y) + math.Abs(m1z-m0z)
	if drift > 1e-3 {
		t.Errorf("momentum drift %g; force computation broken", drift)
	}
	for i := 0; i < b.N(); i++ {
		if math.IsNaN(b.px[i]) || math.IsNaN(b.vx[i]) {
			t.Fatalf("body %d went NaN", i)
		}
	}
}

func TestBarnesPagesUnderPressure(t *testing.T) {
	// Footprint: 4000 bodies * 80B + cells ~ 1 MB in 512 KB of memory.
	env, sys := newVM(128, 4096)
	b := NewBarnes(sys, "barnes", 4000, 1, rand.New(rand.NewSource(9)))
	env.Go("b", func(p *sim.Proc) {
		if err := b.Run(p); err != nil {
			t.Errorf("Run: %v", err)
		}
	})
	env.Run()
	env.Close()
	if sys.Stats().SwapOuts == 0 {
		t.Error("overcommitted Barnes produced no swap-outs")
	}
}
