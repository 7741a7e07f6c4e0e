// Package workload implements the paper's three test programs — testswap,
// quick sort, and a Barnes-Hut N-body simulation (the SPLASH-2 "Barnes"
// stand-in) — running against the simulated VM through a paged-array
// access layer.
//
// The algorithms are real: the sort sorts real integers and the N-body
// code walks a real octree. What the access layer adds is (a) a calibrated
// CPU charge per element access and (b) page-granularity residency checks
// that turn the algorithms' genuine access patterns into page faults on
// the simulated VM. Dataset sizes are scaled down from the paper by a
// configurable factor; ratios between swap configurations are preserved.
package workload

import (
	"math"

	"hpbd/internal/sim"
	"hpbd/internal/vm"
)

// PagedArray mediates element accesses to a virtual array backed by the
// simulated VM. CPU time is accumulated per access and flushed to the
// simulation clock in batches (or at any fault), keeping the event count
// tractable without distorting timing at experiment scale.
type PagedArray struct {
	as        *vm.AddressSpace
	elemBytes int
	cpu       sim.Duration // per-access CPU charge
	accum     sim.Duration
	flushAt   sim.Duration

	Accesses int64
	FaultsIn int64
}

// NewPagedArray creates an array of elems elements of elemBytes each,
// charging cpuPerAccess of compute per element access.
func NewPagedArray(sys *vm.System, name string, elems, elemBytes int, cpuPerAccess sim.Duration) *PagedArray {
	bytes := elems * elemBytes
	pages := (bytes + vm.PageSize - 1) / vm.PageSize
	return &PagedArray{
		as:        sys.NewAddressSpace(name, pages),
		elemBytes: elemBytes,
		cpu:       cpuPerAccess,
		flushAt:   50 * sim.Microsecond,
	}
}

// AddressSpace exposes the underlying VM region.
func (a *PagedArray) AddressSpace() *vm.AddressSpace { return a.as }

// Access touches element idx. write marks the page dirty.
func (a *PagedArray) Access(p *sim.Proc, idx int, write bool) error {
	a.Accesses++
	a.accum += a.cpu
	page := idx * a.elemBytes >> vm.PageShift
	if a.as.Resident(page) {
		a.as.MarkAccess(page, write)
		if a.accum >= a.flushAt {
			d := a.accum
			a.accum = 0
			p.Sleep(d)
		}
		return nil
	}
	d := a.accum
	a.accum = 0
	p.Sleep(d)
	a.FaultsIn++
	return a.as.Touch(p, page, write)
}

// The span layer lets a workload run a stretch of accesses as a plain loop
// over its own data and charge them afterwards, exactly as Access would
// have charged them one by one. A caller starts such a block only after
// resident holds for every page the block can touch, makes at most
// spanBudget accesses in it, applies the block's MarkAccess side effects
// itself (the first read and the first write of each page, in the order
// the element-by-element path would make them) and ends it with charge.
// Nothing in a block sleeps, so no other process runs, evicts a page or
// sees the marks before the block ends. The access that reaches flushAt,
// every fault and every access outside a block go through Access.

// spanBudget returns how many accesses can be charged before the one that
// would reach flushAt: the largest k with accum + k*cpu < flushAt.
func (a *PagedArray) spanBudget() int {
	if a.cpu <= 0 {
		return math.MaxInt
	}
	return int((a.flushAt - a.accum - 1) / a.cpu)
}

// pageEnd returns the first element past the page that holds element idx.
func (a *PagedArray) pageEnd(idx int) int {
	next := (idx*a.elemBytes>>vm.PageShift + 1) << vm.PageShift
	return (next + a.elemBytes - 1) / a.elemBytes
}

// resident reports whether the page holding element idx is mapped.
func (a *PagedArray) resident(idx int) bool {
	return a.as.Resident(idx * a.elemBytes >> vm.PageShift)
}

// mark applies MarkAccess to the resident page holding element idx.
func (a *PagedArray) mark(idx int, write bool) {
	a.as.MarkAccess(idx*a.elemBytes>>vm.PageShift, write)
}

// charge adds n accesses made inside a block; n must not exceed the
// block's spanBudget.
func (a *PagedArray) charge(n int) {
	a.Accesses += int64(n)
	a.accum += sim.Duration(n) * a.cpu
}

// Flush charges any accumulated CPU time to the clock; call at the end of
// a run so the final partial batch is not lost.
func (a *PagedArray) Flush(p *sim.Proc) {
	d := a.accum
	a.accum = 0
	p.Sleep(d)
}

// Release returns the array's memory to the VM.
func (a *PagedArray) Release() { a.as.Release() }
