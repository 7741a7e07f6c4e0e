package workload

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hpbd/internal/blockdev"
	"hpbd/internal/sim"
	"hpbd/internal/vm"
)

// refRun is the quick sort with every element read and write going
// through PagedArray.Access, one call per element: the reference that
// the span-access sort in Run must match exactly.
func refRun(q *Quicksort, p *sim.Proc) error {
	type span struct{ lo, hi int }
	stack := []span{{0, len(q.data) - 1}}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		lo, hi := s.lo, s.hi
		for hi-lo >= insertionCutoff {
			mid, err := refPartition(q, p, lo, hi)
			if err != nil {
				return err
			}
			if mid-lo < hi-mid {
				stack = append(stack, span{mid + 1, hi})
				hi = mid - 1
			} else {
				stack = append(stack, span{lo, mid - 1})
				lo = mid + 1
			}
		}
		if err := refInsertion(q, p, lo, hi); err != nil {
			return err
		}
	}
	q.arr.Flush(p)
	return nil
}

func refPartition(q *Quicksort, p *sim.Proc, lo, hi int) (int, error) {
	pivot, err := q.read(p, hi)
	if err != nil {
		return 0, err
	}
	i := lo - 1
	for j := lo; j < hi; j++ {
		v, err := q.read(p, j)
		if err != nil {
			return 0, err
		}
		if v <= pivot {
			i++
			if i != j {
				if err := q.swap(p, i, j); err != nil {
					return 0, err
				}
			}
		}
	}
	if err := q.swap(p, i+1, hi); err != nil {
		return 0, err
	}
	return i + 1, nil
}

func refInsertion(q *Quicksort, p *sim.Proc, lo, hi int) error {
	for i := lo + 1; i <= hi; i++ {
		v, err := q.read(p, i)
		if err != nil {
			return err
		}
		j := i - 1
		for j >= lo {
			w, err := q.read(p, j)
			if err != nil {
				return err
			}
			if w <= v {
				break
			}
			if err := q.arr.Access(p, j+1, true); err != nil {
				return err
			}
			q.data[j+1] = w
			j--
		}
		if err := q.arr.Access(p, j+1, true); err != nil {
			return err
		}
		q.data[j+1] = v
	}
	return nil
}

// sortOutcome is everything a sort run leaves behind that the span
// layer must not change.
type sortOutcome struct {
	end                sim.Time
	accesses, faultsIn int64
	stats              vm.Stats
	data               []int32
	samples            []sortSample
}

// sortSample is what another process sees of a running sort at one
// instant. Since the sort only yields at flush points and faults, a flush
// moved by a single access changes the samples taken while it sleeps.
type sortSample struct {
	accesses, faultsIn int64
	resident           int
	stats              vm.Stats
}

// sampleEvery is the observer's period: ten samples per flush interval.
const sampleEvery = 5 * sim.Microsecond

// runSort sorts n values from seed in memPages of memory, with the span
// path (Run) or the reference path (refRun), while an observer process
// samples it. Then it evicts the sorted array, so that the pages' dirty
// bits show in the swap-out and freed-clean counts. dup draws the values
// from [0, 8) so most of them equal the pivot. The free-page watermarks
// are scaled down so that a dataset of a few dozen pages, small enough
// for the quadratic duplicate case, still drives kswapd and direct
// reclaim.
func runSort(t *testing.T, seed int64, n, memPages int, dup, ref bool) sortOutcome {
	t.Helper()
	env := sim.NewEnv()
	cfg := vm.DefaultConfig(int64(memPages) * vm.PageSize)
	cfg.FreeMin, cfg.FreeLow, cfg.FreeHigh, cfg.SwapClusterMax = 2, 4, 6, 8
	sys := vm.NewSystem(env, cfg)
	sys.AddSwap(blockdev.NewQueue(env, cfg.Host, &instantDriver{
		sectors: int64(n/1024+2*memPages+64) * vm.SectorsPerPage,
		delay:   30 * sim.Microsecond,
	}), 0)
	rnd := rand.New(rand.NewSource(seed))
	q := NewQuicksort(sys, "qs", n, rnd)
	if dup {
		for i := range q.data {
			q.data[i] = int32(rnd.Intn(8))
		}
	}
	run := q.Run
	if ref {
		run = func(p *sim.Proc) error { return refRun(q, p) }
	}
	var out sortOutcome
	done := false
	env.Go("qs", func(p *sim.Proc) {
		if err := run(p); err != nil {
			t.Errorf("Run: %v", err)
		}
		out.end = p.Now()
		evictAll(t, p, sys, memPages)
		done = true
	})
	env.Go("observer", func(p *sim.Proc) {
		for !done {
			p.Sleep(sampleEvery)
			out.samples = append(out.samples, sortSample{
				q.arr.Accesses, q.arr.FaultsIn, q.arr.AddressSpace().ResidentPages(), sys.Stats(),
			})
		}
	})
	env.Run()
	env.Close()
	if !q.Sorted() {
		t.Error("output not sorted")
	}
	out.accesses, out.faultsIn, out.stats, out.data = q.arr.Accesses, q.arr.FaultsIn, sys.Stats(), q.data
	return out
}

// evictAll writes memPages fresh pages, pushing every other page out of
// memory: a dirty page is written to swap, a clean one dropped.
func evictAll(t *testing.T, p *sim.Proc, sys *vm.System, memPages int) {
	arr := NewPagedArray(sys, "evict", memPages, vm.PageSize, 0)
	for i := 0; i < memPages; i++ {
		if err := arr.Access(p, i, true); err != nil {
			t.Errorf("evict: %v", err)
		}
	}
}

// firstDiff returns the index of the first sample where a and b differ,
// or -1 if they are equal.
func firstDiff(a, b []sortSample) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// The span-access sort must be indistinguishable from the element-by-
// element sort: same virtual end time, access and fault counts, VM
// statistics and sorted data, and the same view for a process sampling
// it while it runs. The matrix covers memory pressure (kswapd and direct
// reclaim run during the flush sleeps) and its absence, sizes that are
// not page-aligned or below insertionCutoff, and heavy-duplicate input.
func TestSpanSortMatchesElementByElement(t *testing.T) {
	var pressured bool
	for _, seed := range []int64{1, 2} {
		for _, n := range []int{1, insertionCutoff - 1, 16_003} {
			pages := (4*n + vm.PageSize - 1) / vm.PageSize
			for _, mem := range []float64{0.5, 1, 4} {
				for _, dup := range []bool{false, true} {
					memPages := max(8, int(mem*float64(pages)))
					t.Run(fmt.Sprintf("seed%d/n%d/mem%v/dup%v", seed, n, mem, dup), func(t *testing.T) {
						got := runSort(t, seed, n, memPages, dup, false)
						want := runSort(t, seed, n, memPages, dup, true)
						if got.end != want.end {
							t.Errorf("end time %v, reference %v", got.end, want.end)
						}
						if got.accesses != want.accesses || got.faultsIn != want.faultsIn {
							t.Errorf("accesses/faults %d/%d, reference %d/%d",
								got.accesses, got.faultsIn, want.accesses, want.faultsIn)
						}
						if got.stats != want.stats {
							t.Errorf("vm stats %+v\nreference %+v", got.stats, want.stats)
						}
						if !slices.Equal(got.data, want.data) {
							t.Error("sorted data differs from the reference")
						}
						if i := firstDiff(got.samples, want.samples); i >= 0 {
							t.Errorf("observer sample %d differs from the reference", i)
						}
						if want.stats.SwapIns > 0 && want.stats.DirectReclaims > 0 {
							pressured = true
						}
					})
				}
			}
		}
	}
	if !pressured {
		t.Error("no case swapped in under direct reclaim; the matrix does not exercise memory pressure")
	}
}

// An insertion run must mark its pages as the element-by-element path
// does: the written page dirty, a page that is only read left clean. The
// run starts on clean pages, so a missed or speculative dirty mark shows
// in the counts after eviction. One run lies on the second page (a
// block); the other also reads the last element of the first page, which
// sorts below the whole run (element by element).
func TestInsertionMarksMatchElementByElement(t *testing.T) {
	const memPages, split, hi = 64, 1024, 1050
	run := func(lo int, ref bool) vm.Stats {
		env, sys := newVM(memPages, 1024)
		q := NewQuicksort(sys, "qs", 2*split, rand.New(rand.NewSource(1)))
		for i := range q.data {
			q.data[i] = int32(i)
		}
		for i := split; i <= hi; i++ {
			q.data[i] = int32(3*split - i)
		}
		env.Go("qs", func(p *sim.Proc) {
			for _, i := range []int{0, split} {
				if err := q.arr.Access(p, i, false); err != nil {
					t.Errorf("Access: %v", err)
				}
			}
			var err error
			if ref {
				err = refInsertion(q, p, lo, hi)
			} else {
				err = q.insertion(p, lo, hi)
			}
			if err != nil {
				t.Errorf("insertion: %v", err)
			}
			q.arr.Flush(p)
			evictAll(t, p, sys, 2*memPages)
		})
		env.Run()
		env.Close()
		if !slices.IsSorted(q.data[lo : hi+1]) {
			t.Error("run not sorted")
		}
		return sys.Stats()
	}
	for _, lo := range []int{split + 3, split - 1} {
		got, want := run(lo, false), run(lo, true)
		if got != want {
			t.Errorf("run [%d, %d]: vm stats %+v\nreference %+v", lo, hi, got, want)
		}
		if want.FreedClean == 0 {
			t.Errorf("run [%d, %d]: the reference dropped no clean page", lo, hi)
		}
	}
}

// spanBudget is the largest k with accum + k*cpu < flushAt: charging k
// accesses never reaches the flush point, and one more always does.
func TestSpanBudgetStopsBeforeFlush(t *testing.T) {
	_, sys := newVM(64, 64)
	for _, cpu := range []sim.Duration{1, 6, 7, 10, 50 * sim.Microsecond} {
		a := NewPagedArray(sys, "a", 1, 4, cpu)
		for accum := sim.Duration(0); accum < a.flushAt; accum += cpu {
			a.accum = accum
			k := sim.Duration(a.spanBudget())
			if accum+k*cpu >= a.flushAt || accum+(k+1)*cpu < a.flushAt {
				t.Fatalf("cpu %v accum %v: budget %d", cpu, accum, k)
			}
		}
	}
}
