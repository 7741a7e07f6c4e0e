package ib

import (
	"fmt"
	"testing"

	"hpbd/internal/sim"
)

// TestPostSendBatchSingleDoorbell checks the host-cost contract: a chained
// post charges the posting process one doorbell regardless of chain length,
// while individual posts pay PerWQE each, and the receiver still sees every
// message in order.
func TestPostSendBatchSingleDoorbell(t *testing.T) {
	cfg := DefaultConfig()
	env, _, a, b := pair(cfg)
	const n = 4
	amr, bmr := a.mr(n*64), b.mr(n*64)
	var charged sim.Duration
	env.Go("run", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			if err := b.qp.PostRecv(RecvWR{ID: uint64(i), Local: Segment{bmr, i * 64, 64}}); err != nil {
				t.Errorf("PostRecv: %v", err)
			}
			copy(amr.Buf[i*64:], fmt.Sprintf("msg-%d", i))
		}
		wrs := make([]SendWR, n)
		for i := range wrs {
			wrs[i] = SendWR{ID: uint64(100 + i), Op: OpSend, Local: Segment{amr, i * 64, 64}}
		}
		t0 := p.Now()
		if err := a.qp.PostSendBatch(p, wrs); err != nil {
			t.Errorf("PostSendBatch: %v", err)
		}
		charged = p.Now().Sub(t0)
		for i := 0; i < n; i++ {
			e := b.recvCQ.WaitPoll(p)
			if e.Status != StatusSuccess || e.WRID != uint64(i) {
				t.Errorf("recv CQE %d = %+v", i, e)
			}
			if got, want := string(bmr.Buf[i*64:i*64+5]), fmt.Sprintf("msg-%d", i); got != want {
				t.Errorf("message %d = %q, want %q", i, got, want)
			}
		}
		for i := 0; i < n; i++ {
			se := a.sendCQ.WaitPoll(p)
			if se.WRID != uint64(100+i) {
				t.Errorf("send CQE %d WRID = %d", i, se.WRID)
			}
		}
	})
	env.Run()
	if charged != cfg.PerWQE {
		t.Errorf("batched post charged %v, want one doorbell %v", charged, cfg.PerWQE)
	}
}

// TestPostSendBatchDoorbellFallback checks that a two-WR chain is charged
// exactly one PerWQE: batching is never modeled as free, nor as a
// per-WQE charge.
func TestPostSendBatchDoorbellFallback(t *testing.T) {
	cfg := DefaultConfig()
	env, _, a, b := pair(cfg)
	amr := a.mr(128)
	bmr := b.mr(128)
	var charged sim.Duration
	env.Go("run", func(p *sim.Proc) {
		if err := b.qp.PostRecv(RecvWR{ID: 0, Local: Segment{bmr, 0, 64}}); err != nil {
			t.Errorf("PostRecv: %v", err)
		}
		if err := b.qp.PostRecv(RecvWR{ID: 1, Local: Segment{bmr, 64, 64}}); err != nil {
			t.Errorf("PostRecv: %v", err)
		}
		t0 := p.Now()
		err := a.qp.PostSendBatch(p, []SendWR{
			{ID: 1, Op: OpSend, Local: Segment{amr, 0, 64}},
			{ID: 2, Op: OpSend, Local: Segment{amr, 64, 64}},
		})
		if err != nil {
			t.Errorf("PostSendBatch: %v", err)
		}
		charged = p.Now().Sub(t0)
	})
	env.Run()
	if charged != cfg.PerWQE {
		t.Errorf("chain charge = %v, want one PerWQE %v", charged, cfg.PerWQE)
	}
}

// TestPostSendBatchAtomicValidation checks that a bad segment anywhere in
// the chain rejects the whole post before anything is issued.
func TestPostSendBatchAtomicValidation(t *testing.T) {
	env, _, a, b := pair(DefaultConfig())
	amr, bmr := a.mr(64), b.mr(64)
	env.Go("run", func(p *sim.Proc) {
		if err := b.qp.PostRecv(RecvWR{ID: 0, Local: Segment{bmr, 0, 64}}); err != nil {
			t.Errorf("PostRecv: %v", err)
		}
		err := a.qp.PostSendBatch(p, []SendWR{
			{ID: 1, Op: OpSend, Local: Segment{amr, 0, 64}},
			{ID: 2, Op: OpSend, Local: Segment{amr, 32, 64}}, // out of bounds
		})
		if err != ErrBadSegment {
			t.Errorf("PostSendBatch = %v, want ErrBadSegment", err)
		}
		if err := a.qp.PostSendBatch(p, nil); err != nil {
			t.Errorf("empty batch: %v", err)
		}
	})
	env.Run()
	if got, ok := b.recvCQ.Poll(); ok {
		t.Errorf("receiver saw CQE %+v after rejected batch", got)
	}
	if b.qp.PostedRecvs() != 1 {
		t.Errorf("posted recvs = %d, want 1 (nothing consumed)", b.qp.PostedRecvs())
	}
}

// TestPostSendBatchClosedQP checks the error path batching callers rely on
// for cleanup.
func TestPostSendBatchClosedQP(t *testing.T) {
	env, _, a, _ := pair(DefaultConfig())
	amr := a.mr(64)
	env.Go("run", func(p *sim.Proc) {
		a.qp.Close()
		err := a.qp.PostSendBatch(p, []SendWR{{ID: 1, Op: OpSend, Local: Segment{amr, 0, 64}}})
		if err != ErrQPClosed {
			t.Errorf("PostSendBatch on closed QP = %v, want ErrQPClosed", err)
		}
	})
	env.Run()
}
