package experiments

import (
	"fmt"
	"math/rand"

	"hpbd/internal/cluster"
	"hpbd/internal/hpbd"
	"hpbd/internal/vm"
	"hpbd/internal/workload"
)

// (cluster is used by the pool-size sweep's two-instance configuration.)

// hpbdConfig builds the standard single-client HPBD node config at scale.
func hpbdConfig(s int64, servers int, mutate func(*hpbd.ClientConfig)) cluster.Config {
	ccfg := hpbd.DefaultClientConfig()
	if mutate != nil {
		mutate(&ccfg)
	}
	return cluster.Config{
		MemBytes:  paperMem / s,
		Swap:      cluster.SwapHPBD,
		SwapBytes: paperSwap / s,
		Servers:   servers,
		Client:    &ccfg,
	}
}

// AblationRegistration compares the paper's copy-into-pool design against
// registering buffers on the fly (§4.1 / Figure 3's argument). The quick
// sort is the sensitive workload: its swap-ins are page_cluster-sized
// (~32 K), deep inside the range where Fig. 3 shows registration losing.
func AblationRegistration(c Config) (*Result, error) {
	s := c.scale()
	res := &Result{
		ID:        "ablation-registration",
		Title:     fmt.Sprintf("Quick sort: pool copy vs register-on-the-fly (1/%d scale)", s),
		Unit:      "s",
		PaperNote: "design argument §4.1: registration on the critical path should lose",
	}
	elems := int(int64(paperQsortInt) / s)
	cases := []struct {
		label  string
		mutate func(*hpbd.ClientConfig)
	}{
		{"pool-copy", nil},
		{"register-fly", func(cc *hpbd.ClientConfig) { cc.DataPath.Mode = hpbd.Register }},
	}
	for _, cs := range cases {
		elapsed, _, err := measure(hpbdConfig(s, 1, cs.mutate), c.Seed, func(sys *vm.System, rnd *rand.Rand) runnable {
			return workload.NewQuicksort(sys, "qsort", elems, rnd)
		})
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", res.ID, cs.label, err)
		}
		res.Rows = append(res.Rows, Row{Label: cs.label, Value: elapsed.Seconds()})
	}
	return res, nil
}

// AblationReceiver compares the event-driven receiver against a
// busy-polling receiver (§4.2.3).
func AblationReceiver(c Config) (*Result, error) {
	s := c.scale()
	res := &Result{
		ID:        "ablation-receiver",
		Title:     fmt.Sprintf("Quick sort: event-driven vs polling receiver (1/%d scale)", s),
		Unit:      "s",
		PaperNote: "design argument §4.2.3: events cost a wakeup but free the CPU",
	}
	elems := int(int64(paperQsortInt) / s)
	cases := []struct {
		label  string
		mutate func(*hpbd.ClientConfig)
	}{
		{"event-driven", nil},
		{"polling", func(cc *hpbd.ClientConfig) { cc.PollingReceiver = true }},
	}
	for _, cs := range cases {
		elapsed, _, err := measure(hpbdConfig(s, 1, cs.mutate), c.Seed, func(sys *vm.System, rnd *rand.Rand) runnable {
			return workload.NewQuicksort(sys, "qsort", elems, rnd)
		})
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", res.ID, cs.label, err)
		}
		res.Rows = append(res.Rows, Row{Label: cs.label, Value: elapsed.Seconds()})
	}
	return res, nil
}

// AblationStriping compares the paper's blocked distribution against
// 64 KB striping over 4 servers (§4.2.5).
func AblationStriping(c Config) (*Result, error) {
	s := c.scale()
	res := &Result{
		ID:        "ablation-striping",
		Title:     fmt.Sprintf("Quick sort, 4 servers: blocked vs 64K-striped layout (1/%d scale)", s),
		Unit:      "s",
		PaperNote: "design argument §4.2.5: striping splits <=128K requests for little gain",
	}
	elems := int(int64(paperQsortInt) / s)
	cases := []struct {
		label  string
		mutate func(*hpbd.ClientConfig)
	}{
		{"blocked", nil},
		{"striped-64k", func(cc *hpbd.ClientConfig) { cc.StripeBytes = 64 * 1024 }},
	}
	for _, cs := range cases {
		elapsed, node, err := measure(hpbdConfig(s, 4, cs.mutate), c.Seed, func(sys *vm.System, rnd *rand.Rand) runnable {
			return workload.NewQuicksort(sys, "qsort", elems, rnd)
		})
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", res.ID, cs.label, err)
		}
		res.Rows = append(res.Rows, Row{
			Label: cs.label,
			Value: elapsed.Seconds(),
			Stat:  fmt.Sprintf("splits %d", node.HPBD.Stats().Splits),
		})
	}
	return res, nil
}

// AblationPoolSize sweeps the registration pool size under the
// two-concurrent-sorts workload, where faults from both instances plus
// reclaim write-back keep several requests in flight and a small pool
// forces the allocation wait queue to serialize them (§4.2.2).
func AblationPoolSize(c Config) (*Result, error) {
	s := c.scale()
	res := &Result{
		ID:        "ablation-poolsize",
		Title:     fmt.Sprintf("Two quick sorts vs registration pool size (1/%d scale)", s),
		Unit:      "s",
		PaperNote: "paper fixes the pool at 1MB; small pools stall on the wait queue",
	}
	elems := int(int64(paperQsortInt) / s / 2)
	for _, kb := range []int{128, 256, 512, 1024, 4096} {
		ccfg := hpbd.DefaultClientConfig()
		ccfg.PoolBytes = kb * 1024
		cfg := cluster.Config{
			MemBytes:  paperMem / s / 2,
			Swap:      cluster.SwapHPBD,
			SwapBytes: paperSwap / s,
			Servers:   2,
			Client:    &ccfg,
		}
		times, node, err := measureTwoOn(cfg, c.Seed, elems)
		if err != nil {
			return nil, fmt.Errorf("%s/%dKB: %w", res.ID, kb, err)
		}
		avg := (times[0] + times[1]) / 2
		res.Rows = append(res.Rows, Row{
			Label: fmt.Sprintf("pool-%dKB", kb),
			Value: avg.Seconds(),
			Stat:  fmt.Sprintf("alloc waits %d", node.HPBD.Pool().AllocWaits),
		})
	}
	return res, nil
}
