// Command swapbench is the repository's benchmark. It runs one of three
// workloads through the public APIs, checks their outputs, and prints
// every metric by name with its unit and clock. The last line of its
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// with the end-to-end metrics (--trace 0) or the per-layer metrics of a
// profiled run (--trace 1). See README.md for the metric definitions.
//
// Usage:
//
//	swapbench --workload qsort|pagechurn|netblock --seed N --seconds S --trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"syscall"
	"time"
)

// minReps is the fewest untraced and the fewest traced repetitions a
// traced run makes, so each kind has a median.
const minReps = 3

// metric is one reported value. Clock is "host" (wall or CPU time of
// this process), "virtual" (the simulator's clock) or "" for counts.
type metric struct {
	name  string
	value float64
	unit  string
	clock string
	base  string // the counts a ratio or mean is taken over
}

type report struct {
	attempted, failed int64
	problems          []string
	e2e, layer        []metric
}

func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func main() {
	workload := flag.String("workload", "", "qsort, pagechurn or netblock")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a profiled run")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "swapbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	window := time.Duration(*seconds) * time.Second

	var rep *report
	var err error
	switch *workload {
	case "qsort", "pagechurn":
		rep, err = benchSim(*workload, *seed, window, *trace == 1)
	case "netblock":
		rep, err = benchNetblock(*seed, window, *trace == 1)
	default:
		err = fmt.Errorf("unknown workload %q", *workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "swapbench:", err)
		os.Exit(1)
	}

	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fmt.Fprintln(os.Stderr, "swapbench: getrusage:", err)
		os.Exit(1)
	}
	rep.e2e = append(rep.e2e, metric{name: "peak_mem_mb", value: float64(ru.Maxrss) / 1024, unit: "MB", clock: "host", base: "peak RSS of the run"})

	fmt.Printf("workload %s seed %d window %ds trace %d\n", *workload, *seed, *seconds, *trace)
	fmt.Println("end-to-end:")
	printMetrics(rep.e2e)
	if *trace == 1 {
		fmt.Println("per-layer:")
		printMetrics(rep.layer)
	}
	for _, p := range rep.problems {
		fmt.Println("FAILED:", p)
	}
	fmt.Printf("error_rate %.6g (%d failed / %d attempted)\n", float64(rep.failed)/float64(rep.attempted), rep.failed, rep.attempted)

	shown := rep.e2e
	if *trace == 1 {
		shown = rep.layer
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, map[string]jsonMetric{}}
	for _, m := range shown {
		out.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "swapbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if rep.failed != 0 {
		os.Exit(1)
	}
}

func printMetrics(ms []metric) {
	for _, m := range ms {
		clock := m.clock
		if clock == "" {
			clock = "count"
		}
		fmt.Printf("  %-32s %16.6f %-6s %-8s %s\n", m.name, m.value, m.unit, clock, m.base)
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
