package main

import (
	"runtime/metrics"
)

// Go runtime counters read around a measured phase.
var runtimeMetrics = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

// tracer brackets the measured phase of a repetition. It always reads
// the runtime counters; with a profiler it also takes a CPU profile, which
// is what makes a repetition "traced".
type tracer struct {
	prof   *profiler
	start  []metrics.Sample
	deltas [4]float64 // runtimeMetrics deltas over the last phase
}

func newTracer(prof *profiler) *tracer {
	t := &tracer{prof: prof}
	t.start = make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		t.start[i].Name = name
	}
	return t
}

func (t *tracer) begin() error {
	metrics.Read(t.start)
	if t.prof != nil {
		return t.prof.start()
	}
	return nil
}

// since returns the runtime counters' growth since begin.
func (t *tracer) since() [4]float64 {
	now := make([]metrics.Sample, len(t.start))
	for i := range now {
		now[i].Name = t.start[i].Name
	}
	metrics.Read(now)
	var d [4]float64
	for i := range now {
		d[i] = value(now[i]) - value(t.start[i])
	}
	return d
}

// allocsSince returns the heap objects allocated since begin.
func (t *tracer) allocsSince() uint64 { return uint64(t.since()[0]) }

func (t *tracer) end() error {
	t.deltas = t.since()
	if t.prof != nil {
		return t.prof.stop()
	}
	return nil
}

func value(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}
