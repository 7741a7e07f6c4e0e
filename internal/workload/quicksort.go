package workload

import (
	"math/rand"

	"hpbd/internal/sim"
	"hpbd/internal/vm"
)

// QuicksortCPUPerAccess calibrates compute per instrumented array access
// so the paper's in-memory run (256 Mi integers in 94 s) is reproduced at
// the paper's scale.
const QuicksortCPUPerAccess = 6 * sim.Nanosecond

// insertionCutoff is the subarray size below which insertion sort runs.
const insertionCutoff = 32

// Quicksort is the paper's application benchmark: sort randomly generated
// integers whose footprint exceeds local memory. The sort is real (the
// data ends up ordered); every element read and write also drives the
// paged access layer.
type Quicksort struct {
	data []int32
	arr  *PagedArray
}

// NewQuicksort creates a sorter over n random int32s drawn from rnd.
func NewQuicksort(sys *vm.System, name string, n int, rnd *rand.Rand) *Quicksort {
	q := &Quicksort{
		data: make([]int32, n),
		arr:  NewPagedArray(sys, name, n, 4, QuicksortCPUPerAccess),
	}
	for i := range q.data {
		q.data[i] = int32(rnd.Uint32())
	}
	return q
}

// Array exposes the underlying paged array for stats.
func (q *Quicksort) Array() *PagedArray { return q.arr }

// Len returns the element count.
func (q *Quicksort) Len() int { return len(q.data) }

// Sorted verifies the post-condition (tests).
func (q *Quicksort) Sorted() bool {
	for i := 1; i < len(q.data); i++ {
		if q.data[i-1] > q.data[i] {
			return false
		}
	}
	return true
}

// read loads element i through the paging layer.
func (q *Quicksort) read(p *sim.Proc, i int) (int32, error) {
	if err := q.arr.Access(p, i, false); err != nil {
		return 0, err
	}
	return q.data[i], nil
}

// swap exchanges elements i and j through the paging layer.
func (q *Quicksort) swap(p *sim.Proc, i, j int) error {
	if err := q.arr.Access(p, i, true); err != nil {
		return err
	}
	if err := q.arr.Access(p, j, true); err != nil {
		return err
	}
	q.data[i], q.data[j] = q.data[j], q.data[i]
	return nil
}

// Run sorts the array.
func (q *Quicksort) Run(p *sim.Proc) error {
	// Explicit stack; always recurse into the smaller half first so the
	// stack stays O(log n).
	type span struct{ lo, hi int }
	stack := []span{{0, len(q.data) - 1}}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		lo, hi := s.lo, s.hi
		for hi-lo >= insertionCutoff {
			mid, err := q.partition(p, lo, hi)
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
		if err := q.insertion(p, lo, hi); err != nil {
			return err
		}
	}
	q.arr.Flush(p)
	return nil
}

// partition is the CLRS PARTITION (Lomuto): a single left-to-right scan
// with the last element as pivot, exchanged to the middle at the end. The
// strictly sequential access pattern matters for the paper's results: it
// is what lets swap-in readahead and block-layer merging work for the
// sort (the paper's quick sort follows CLRS [20], and sorts uniformly
// random input, where the last-element pivot is well-behaved).
//
// The scan runs in blocks of plain slice accesses (partitionBlock); an
// element that cannot start one, because its page is not resident, i's
// next page is not resident or the flush point is reached, goes through
// the paging layer on its own.
func (q *Quicksort) partition(p *sim.Proc, lo, hi int) (int, error) {
	pivot, err := q.read(p, hi)
	if err != nil {
		return 0, err
	}
	i, j := lo-1, lo
	for j < hi {
		// A scanned element costs at most three accesses: its read and a
		// swap.
		end := min(hi, q.arr.pageEnd(j))
		if k := q.arr.spanBudget() / 3; k < end-j {
			end = j + k
		}
		if end > j && q.arr.resident(j) {
			iEnd := i + 1
			if q.arr.resident(i + 1) {
				iEnd = q.arr.pageEnd(i + 1)
			}
			var n int
			if i, j, n = q.partitionBlock(i, j, end, iEnd, pivot); n > 0 {
				q.arr.charge(n)
				continue
			}
		}
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
		j++
	}
	if err := q.swap(p, i+1, hi); err != nil {
		return 0, err
	}
	return i + 1, nil
}

// partitionBlock scans elements [j, end) of a partition as a plain loop
// and returns the new cursors and the number of accesses made. The caller
// has checked that j's page is resident, that end stays on that page and
// within the flush budget, and that i may advance while i+1 < iEnd (the
// end of i+1's page if it is resident, else i+1 itself). The block may
// stop early, where i could next reach iEnd.
//
//hpbd:hotpath
func (q *Quicksort) partitionBlock(i, j, end, iEnd int, pivot int32) (int, int, int) {
	d := q.data
	j0 := j
	// Until the scan meets an element above the pivot, i+1 == j and an
	// element at or below it advances i without a swap.
	for j < end && i+1 == j && d[j] <= pivot {
		i, j = j, j+1
	}
	// From here on i+1 < j, so every element at or below the pivot is
	// swapped: the loop swaps unconditionally and lets the comparison pick
	// which of the two values goes where. i advances at most once per
	// element, so the loop ends before it could reach iEnd.
	k0 := i + 1
	end = min(end, j+iEnd-k0)
	for ; j < end; j++ {
		v := d[j]
		k := i + 1
		// m is -1 if v <= pivot, else 0, so delta is j-k or 0: the two
		// stores swap d[k] and d[j], or store both back unchanged.
		m := (int64(v) - int64(pivot) - 1) >> 63
		delta := int(m) & (j - k)
		d[k+delta] = d[k]
		d[j-delta] = v
		i -= int(m)
	}
	swaps := i + 1 - k0
	if j > j0 {
		// The element-by-element path reads j's page first; its first swap
		// then dirties i's page and j's. Every later mark in the block
		// repeats one of these.
		q.arr.mark(j0, false)
		if swaps > 0 {
			q.arr.mark(k0, true)
			q.arr.mark(j0, true)
		}
	}
	return i, j, j - j0 + 2*swaps
}

// insertion sorts [lo, hi] by straight insertion. A run on one resident
// page is sorted in blocks (insertionBlock); an element whose insertion
// could reach the flush point, and a run that crosses a page boundary or
// has a page out, go through the paging layer element by element.
func (q *Quicksort) insertion(p *sim.Proc, lo, hi int) error {
	onePage := hi < q.arr.pageEnd(lo)
	for i := lo + 1; i <= hi; {
		if onePage && q.arr.resident(lo) {
			var n int
			if i, n = q.insertionBlock(lo, hi, i, q.arr.spanBudget()); n > 0 {
				q.arr.charge(n)
				continue
			}
		}
		if err := q.insert(p, lo, i); err != nil {
			return err
		}
		i++
	}
	return nil
}

// insert moves element i into place in the sorted run [lo, i) through the
// paging layer.
func (q *Quicksort) insert(p *sim.Proc, lo, i int) error {
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
	return nil
}

// insertionBlock inserts elements i.. of the run [lo, hi], which lies on
// one resident page, as plain loops while the worst case of the next
// insertion, 2+2(i-lo) accesses, fits in budget. It returns the next
// element to insert and the number of accesses made.
//
//hpbd:hotpath
func (q *Quicksort) insertionBlock(lo, hi, i, budget int) (int, int) {
	d := q.data
	i0, n := i, 0
	for ; i <= hi && n+2+2*(i-lo) <= budget; i++ {
		v := d[i]
		j := i - 1
		for j >= lo && d[j] > v {
			d[j+1] = d[j]
			j--
		}
		d[j+1] = v
		// A read of v, a read and a write per shift, the read that stopped
		// the scan if it stopped above lo, and the store of v.
		n += 2 + 2*(i-1-j)
		if j >= lo {
			n++
		}
	}
	if i > i0 {
		// Each insertion reads the page, then writes it.
		q.arr.mark(lo, false)
		q.arr.mark(lo, true)
	}
	return i, n
}

// Release frees the workload's memory.
func (q *Quicksort) Release() { q.arr.Release() }
