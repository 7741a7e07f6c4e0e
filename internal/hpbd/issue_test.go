package hpbd

import (
	"bytes"
	"math/rand"
	"testing"

	"hpbd/internal/blockdev"
	"hpbd/internal/disk"
	"hpbd/internal/ib"
	"hpbd/internal/sim"
	"hpbd/internal/tenant"
)

// issueOp is one request of the seeded issue-mode stream.
type issueOp struct {
	write bool
	off   int64
	size  int
	seed  byte
}

const (
	issueIssuers = 4
	issueRegion  = 512 << 10 // each issuer owns one region, so its model is exact
	issueOps     = 24
)

// issueStream returns each issuer's ops: 4-128 KB sector-aligned reads
// and writes inside its own region, mixing whole-quantum sizes with
// ones whose last quantum is partial (20K, 36K, 100K and random sizes).
func issueStream(seed int64) [][]issueOp {
	rnd := rand.New(rand.NewSource(seed))
	fixed := []int{4 << 10, 16 << 10, 20 << 10, 36 << 10, 100 << 10, 128 << 10}
	ops := make([][]issueOp, issueIssuers)
	for i := range ops {
		for k := 0; k < issueOps; k++ {
			size := fixed[rnd.Intn(len(fixed))]
			if rnd.Intn(2) == 0 {
				size = (rnd.Intn(249) + 8) * blockdev.SectorSize
			}
			sectors := (issueRegion - size) / blockdev.SectorSize
			off := int64(i*issueRegion + rnd.Intn(sectors+1)*blockdev.SectorSize)
			ops[i] = append(ops[i], issueOp{write: rnd.Intn(2) == 0, off: off, size: size, seed: byte(rnd.Intn(256))})
		}
	}
	return ops
}

// issueBed is one server in a given issue mode with one device over it.
type issueBed struct {
	env *sim.Env
	srv *Server
	dev *Device
}

func newIssueBed(t *testing.T, spec string, fifo, fallback bool) *issueBed {
	t.Helper()
	const area = issueIssuers * issueRegion
	env := sim.NewEnv()
	f := ib.NewFabric(env, ib.DefaultConfig())
	scfg := DefaultServerConfig(area)
	ccfg := DefaultClientConfig()
	ccfg.MaxRetries = 8
	if spec != "" {
		sp, err := tenant.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		scfg.Tenancy = sp
		scfg.TenantFIFO = fifo
		ccfg.Tenant = sp.Tenants[0].ID
	}
	if fallback {
		ccfg.RequestTimeout = 5 * sim.Millisecond
		ccfg.Fallback = disk.New(env, "fb", area, disk.DefaultParams())
	}
	b := &issueBed{env: env, srv: NewServer(f, "mem0", scfg), dev: NewDevice(f, "hpbd0", ccfg)}
	if err := b.dev.ConnectServer(b.srv, area); err != nil {
		t.Fatalf("ConnectServer: %v", err)
	}
	return b
}

// do submits one request and waits for it to settle.
func (b *issueBed) do(p *sim.Proc, write bool, off int64, buf []byte) error {
	r := blockdev.NewRequest(b.env, write, off/blockdev.SectorSize, buf)
	b.dev.Submit(p, r)
	return r.Wait(p)
}

var issueModes = []struct {
	name string
	spec string
	fifo bool
}{
	{"untenanted", "", false},
	{"fifo", "pool=16,a:w1", true},
	{"wfq", "pool=16,a:w1", false},
}

// TestIssueModesEquivalent runs one seeded request stream through the
// untenanted, FIFO-tenant and WFQ-tenant server. The three modes share
// one serve step and differ only in chunk size, where the store stage
// runs and the worker count, so every mode must return the bytes a
// model predicts, settle every request, hold credit conservation and
// hand every staging buffer back to the pool.
func TestIssueModesEquivalent(t *testing.T) {
	stream := issueStream(7)
	total := issueIssuers * issueOps
	for _, m := range issueModes {
		t.Run(m.name, func(t *testing.T) {
			b := newIssueBed(t, m.spec, m.fifo, false)
			model := make([]byte, issueIssuers*issueRegion)
			settled := 0
			for i := range stream {
				ops := stream[i]
				b.env.Go("issuer", func(p *sim.Proc) {
					for k, op := range ops {
						buf := make([]byte, op.size)
						if op.write {
							buf = pattern(op.size, op.seed)
						}
						if err := b.do(p, op.write, op.off, buf); err != nil {
							t.Errorf("op %d (write=%v off=%d size=%d): %v", k, op.write, op.off, op.size, err)
							return
						}
						settled++
						if op.write {
							copy(model[op.off:], buf)
						} else if !bytes.Equal(buf, model[op.off:op.off+int64(op.size)]) {
							t.Errorf("read at %d (%d bytes) differs from the model", op.off, op.size)
						}
					}
				})
			}
			b.env.Run()
			b.env.Close()
			if settled != total {
				t.Errorf("%d of %d requests settled", settled, total)
			}
			if !bytes.Equal(b.srv.Store().Peek(0, len(model)), model) {
				t.Error("server store differs from the model")
			}
			if err := b.srv.TenancyCheck(); err != nil {
				t.Error(err)
			}
			if got, want := len(b.srv.pool), b.srv.poolSize(); got != want {
				t.Errorf("staging pool holds %d after the run, want %d", got, want)
			}
			// Every issue grant is one pop. Whole-request issue pops each
			// request once; quantum issue pops a write once per quantum and
			// a read once more, for the grant that dispatches its store
			// stage.
			var grants, want int64
			for _, f := range b.srv.work.FlowStats() {
				grants += f.Reqs
			}
			for _, ops := range stream {
				for _, op := range ops {
					switch {
					case m.spec == "" || m.fifo:
						want++
					case op.write:
						want += int64((op.size + tenantQuantum - 1) / tenantQuantum)
					default:
						want += int64(1 + (op.size+tenantQuantum-1)/tenantQuantum)
					}
				}
			}
			if grants != want {
				t.Errorf("%d issue grants, want %d", grants, want)
			}
		})
	}
}

// TestIssueModesCrashReturnsStaging crashes the server while requests
// are in service, in each issue mode, with a fallback disk under the
// device. The closed-QP exits (mid-transfer, and under quantum issue a
// parked store stage) must still return their staging buffers; every
// request settles, and after rewriting the whole area every byte reads
// back from the fallback.
func TestIssueModesCrashReturnsStaging(t *testing.T) {
	stream := issueStream(11)
	total := issueIssuers * issueOps
	for _, m := range issueModes {
		t.Run(m.name, func(t *testing.T) {
			b := newIssueBed(t, m.spec, m.fifo, true)
			inService := 0
			b.env.Go("crash", func(p *sim.Proc) {
				p.Sleep(sim.Millisecond)
				for len(b.srv.pool) == b.srv.poolSize() {
					p.Sleep(5 * sim.Microsecond)
				}
				inService = b.srv.poolSize() - len(b.srv.pool)
				b.srv.Crash()
			})
			settled := 0
			done := 0
			for i := range stream {
				ops := stream[i]
				region := int64(i * issueRegion)
				b.env.Go("issuer", func(p *sim.Proc) {
					for _, op := range ops {
						buf := make([]byte, op.size)
						if op.write {
							buf = pattern(op.size, op.seed)
						}
						_ = b.do(p, op.write, op.off, buf) // pre-crash data is lost with the server
						settled++
					}
					want := pattern(issueRegion, byte(i))
					for off := int64(0); off < issueRegion; off += 128 << 10 {
						if err := b.do(p, true, region+off, want[off:off+128<<10]); err != nil {
							t.Errorf("rewrite: %v", err)
							return
						}
					}
					got := make([]byte, issueRegion)
					for off := int64(0); off < issueRegion; off += 128 << 10 {
						if err := b.do(p, false, region+off, got[off:off+128<<10]); err != nil {
							t.Errorf("read back: %v", err)
							return
						}
					}
					if !bytes.Equal(got, want) {
						t.Errorf("region %d differs after the rewrite", i)
					}
					done++
				})
			}
			b.env.Run()
			b.env.Close()
			if inService == 0 {
				t.Fatal("the crash caught no request in service")
			}
			if settled != total || done != issueIssuers {
				t.Errorf("%d of %d requests settled, %d of %d issuers finished", settled, total, done, issueIssuers)
			}
			if b.dev.Failed() {
				t.Error("device failed despite the fallback")
			}
			if err := b.srv.TenancyCheck(); err != nil {
				t.Error(err)
			}
			if got, want := len(b.srv.pool), b.srv.poolSize(); got != want {
				t.Errorf("staging pool holds %d after the crash, want %d", got, want)
			}
		})
	}
}
