package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"log"
	"math/rand"
	"runtime"
	"time"

	"hpbd/internal/cluster"
	"hpbd/internal/netblock"
	"hpbd/internal/sim"
	"hpbd/internal/telemetry"
)

// netblock shape: one server and one client connection with 16 credits
// on loopback, one issuing goroutine (closed loop), 50% reads and 50%
// writes of 4/16/64/128 KB at 4K-aligned offsets in a 64 MB area.
const (
	nbArea    = 64 << 20
	nbCredits = 16
	nbOps     = 2000
	nbFill    = netblock.MaxRequestBytes
)

var nbSizes = [...]int{4 << 10, 16 << 10, 64 << 10, 128 << 10}

type nbOp struct {
	write bool
	off   int64
	n     int
	fill  uint64 // payload pattern seed for writes
}

// nbRep is one netblock repetition: the TCP batch's host timings and
// per-op latencies, then the same batch replayed on the simulated HPBD.
type nbRep struct {
	setup, wall       time.Duration
	readLat, writeLat []time.Duration
	bytes             int64
	requests          int64 // Client.Requests over the batch
	stages            [telemetry.NumStages]time.Duration
	attempted, failed int64
	replay            simOut
	replayWall        time.Duration
	allocs            uint64 // heap objects allocated during the batch
}

func nbBatch(seed int64) []nbOp {
	rnd := rand.New(rand.NewSource(seed))
	ops := make([]nbOp, nbOps)
	for i := range ops {
		n := nbSizes[rnd.Intn(len(nbSizes))]
		ops[i] = nbOp{
			write: rnd.Intn(2) == 0,
			off:   int64(rnd.Intn((nbArea-n)/4096+1)) * 4096,
			n:     n,
			fill:  rnd.Uint64(),
		}
	}
	return ops
}

// pattern fills b with a cheap deterministic byte pattern from seed.
func pattern(b []byte, seed uint64) {
	x := seed | 1
	for i := 0; i+8 <= len(b); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(b[i:], x)
	}
}

// fillImage writes the area's content after set-up into img: every
// 128 KB extent holds its own pattern.
func fillImage(img []byte, seed int64) {
	for off := 0; off < nbArea; off += nbFill {
		pattern(img[off:off+nbFill], uint64(seed)^uint64(off))
	}
}

// runNetblock runs one repetition: the batch over TCP, then the same batch
// on the simulated HPBD. Only the TCP phase's ReadAt/WriteAt calls are
// timed per op; every read is compared with the shadow image outside
// them, and the whole area is read back and compared at the end.
//
// shadow is the caller's nbArea-byte scratch image, reused across
// repetitions. The heap is collected between the two phases, so the TCP
// server's area is gone before the simulated node allocates its own.
func runNetblock(seed int64, shadow []byte, tr *tracer) (*nbRep, error) {
	rep := &nbRep{}
	ops := nbBatch(seed)
	fillImage(shadow, seed)
	if err := overTCP(rep, ops, shadow, tr); err != nil {
		return nil, err
	}
	fillImage(shadow, seed)
	runtime.GC()
	t := time.Now()
	out, failed, err := replay(ops, shadow)
	rep.replayWall = time.Since(t)
	if err := tr.end(); err != nil {
		return nil, err
	}
	if err != nil {
		return nil, err
	}
	rep.replay = out
	rep.attempted += int64(len(ops))
	rep.failed += failed
	return rep, nil
}

// overTCP sets up a server and a client, fills the area from shadow and
// runs the batch. The server and client are gone when it returns.
func overTCP(rep *nbRep, ops []nbOp, shadow []byte, tr *tracer) error {
	t0 := time.Now()
	srv, err := netblock.Serve("127.0.0.1:0", netblock.ServerConfig{
		CapacityBytes: nbArea,
		Logger:        log.New(io.Discard, "", 0),
	})
	if err != nil {
		return fmt.Errorf("netblock.Serve: %w", err)
	}
	defer srv.Close()
	cl, err := netblock.Dial(srv.Addr(), nbArea, nbCredits)
	if err != nil {
		return fmt.Errorf("netblock.Dial: %w", err)
	}
	defer cl.Close()
	for off := 0; off < nbArea; off += nbFill {
		if _, err := cl.WriteAt(shadow[off:off+nbFill], int64(off)); err != nil {
			return fmt.Errorf("netblock fill: %w", err)
		}
	}
	rep.setup = time.Since(t0)

	base := cl.Requests()
	var stage0 [telemetry.NumStages]time.Duration
	for s := range stage0 {
		stage0[s] = cl.StageSum(telemetry.Stage(s))
	}
	buf := make([]byte, netblock.MaxRequestBytes)
	if err := tr.begin(); err != nil {
		return err
	}
	t1 := time.Now()
	for _, op := range ops {
		b := buf[:op.n]
		rep.attempted++
		rep.bytes += int64(op.n)
		if op.write {
			pattern(b, op.fill)
			ts := time.Now()
			_, err := cl.WriteAt(b, op.off)
			rep.writeLat = append(rep.writeLat, time.Since(ts))
			if err != nil {
				rep.failed++
				continue
			}
			copy(shadow[op.off:], b)
			continue
		}
		ts := time.Now()
		_, err := cl.ReadAt(b, op.off)
		rep.readLat = append(rep.readLat, time.Since(ts))
		if err != nil || !bytes.Equal(b, shadow[op.off:op.off+int64(op.n)]) {
			rep.failed++
		}
	}
	rep.wall = time.Since(t1)
	rep.requests = cl.Requests() - base
	for s := range rep.stages {
		rep.stages[s] = cl.StageSum(telemetry.Stage(s)) - stage0[s]
	}
	rep.allocs = tr.allocsSince()

	for off := 0; off < nbArea; off += nbFill {
		rep.attempted++
		if _, err := cl.ReadAt(buf, int64(off)); err != nil || !bytes.Equal(buf, shadow[off:off+nbFill]) {
			rep.failed++
		}
	}
	return nil
}

// replay issues the batch closed loop on a simulated one-server HPBD node,
// through its block queue, after filling the area from shadow; reads are
// checked against shadow as it evolves. It returns the node's results and
// the number of failed or mismatched operations.
func replay(ops []nbOp, shadow []byte) (simOut, int64, error) {
	env := sim.NewEnv()
	tel := telemetry.New(env)
	lc := tel.EnableLifecycle(flightRing)
	node, err := cluster.Build(env, cluster.Config{
		MemBytes:  paperMem / scale,
		Swap:      cluster.SwapHPBD,
		SwapBytes: nbArea,
		Servers:   1,
		Telemetry: tel,
	})
	if err != nil {
		return simOut{}, 0, fmt.Errorf("cluster.Build: %w", err)
	}
	var failed int64
	var elapsed sim.Duration
	var runErr error
	env.Go("replay", func(p *sim.Proc) {
		node.Ready.Wait(p)
		do := func(write bool, off int64, b []byte) error {
			io, err := node.Queue.Submit(write, off/512, b)
			if err != nil {
				return err
			}
			node.Queue.Unplug()
			return io.Wait(p)
		}
		for off := 0; off < nbArea; off += nbFill {
			if runErr = do(true, int64(off), shadow[off:off+nbFill]); runErr != nil {
				return
			}
		}
		start := p.Now()
		buf := make([]byte, netblock.MaxRequestBytes)
		for _, op := range ops {
			b := buf[:op.n]
			if op.write {
				pattern(b, op.fill)
				if err := do(true, op.off, b); err != nil {
					failed++
					continue
				}
				copy(shadow[op.off:], b)
				continue
			}
			if err := do(false, op.off, b); err != nil || !bytes.Equal(b, shadow[op.off:op.off+int64(op.n)]) {
				failed++
			}
		}
		elapsed = p.Now().Sub(start)
	})
	env.Run()
	env.Close()
	if runErr != nil {
		return simOut{}, 0, fmt.Errorf("replay fill: %w", runErr)
	}
	if err := ringHeld(lc); err != nil {
		return simOut{}, 0, err
	}
	return collect(node, tel, lc, elapsed, nbArea/nbFill), failed, nil
}
