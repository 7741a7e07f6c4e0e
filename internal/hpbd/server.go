package hpbd

import (
	"fmt"
	"sort"

	"hpbd/internal/ib"
	"hpbd/internal/netmodel"
	"hpbd/internal/placement"
	"hpbd/internal/ramdisk"
	"hpbd/internal/sim"
	"hpbd/internal/telemetry"
	"hpbd/internal/tenant"
	"hpbd/internal/wire"
)

// ServerConfig parameterizes a memory server.
type ServerConfig struct {
	// StoreBytes is the total RamDisk capacity exported to clients.
	StoreBytes int64
	// Workers is the number of concurrent request processors; the staging
	// pool holds one buffer per worker, so it bounds outstanding RDMA
	// operations and provides the paper's RDMA/memcpy overlap.
	Workers int
	// StagingBytes is the size of each staging buffer (>= the largest
	// request, 128 KB).
	StagingBytes int
	// RecvDepth is the number of request receive buffers pre-posted per
	// client connection; it must be >= the client's credit limit.
	RecvDepth int
	// IdleSpin is how long the server polls before yielding the CPU and
	// sleeping on a completion event (the paper: 200 us).
	IdleSpin sim.Duration
	// StoreOpOverhead is the per-request cost of reaching the RamDisk
	// store through its file-system interface (the paper's server
	// manipulates RamDisk-based files).
	StoreOpOverhead sim.Duration
	// Host carries wakeup costs.
	Host netmodel.HostModel
	// DoorbellBatch, when > 1, routes workers' RDMA posts through a
	// dedicated issuer process that drains up to this many queued
	// operations and posts each connection's share as one chained
	// doorbell (mirroring the client sender's batching). <= 1 keeps the
	// per-operation posts of the paper's design.
	DoorbellBatch int
	// Telemetry, if non-nil, is the registry the server reports into
	// (metric names are prefixed with the server name); nil gives the
	// server a private registry so Stats() always works.
	Telemetry *telemetry.Registry

	// Tenancy, if non-nil, turns on multi-tenant QoS (see tenancy.go):
	// the receive window is credit-partitioned per tenant, worker issue
	// order comes from the byte-weighted fair queue in quantum issue (see
	// serve), and per-tenant quotas are admission-enforced. Nil (the
	// default) keeps the single-tenant server byte-identical.
	Tenancy *tenant.Spec
	// TenantFIFO replaces the fair queue with strict FIFO issue of whole
	// requests while keeping every other tenancy mechanism — the
	// isolation experiments' control arm. Ignored without Tenancy.
	TenantFIFO bool
}

// DefaultServerConfig returns the paper's server configuration for a
// store of the given size.
func DefaultServerConfig(storeBytes int64) ServerConfig {
	return ServerConfig{
		StoreBytes:      storeBytes,
		Workers:         4,
		StagingBytes:    128 * 1024,
		RecvDepth:       32,
		IdleSpin:        200 * sim.Microsecond,
		StoreOpOverhead: 80 * sim.Microsecond,
		Host:            netmodel.DefaultHost(),
	}
}

// ServerStats aggregates server activity. It is a snapshot assembled from
// the telemetry registry ("<name>." counters); Stats() is the
// compatibility accessor.
type ServerStats struct {
	Requests    int64
	Writes      int64
	Reads       int64
	BytesStored int64
	BytesServed int64
	BadRequests int64
	IdleSleeps  int64
	RDMAIssued  int64
	Doorbells   int64 // RDMA doorbells rung (== RDMAIssued unless batching)
}

// serverMetrics are the server's registry handles, resolved once at
// creation under the server's name prefix (per-server RDMA op counts are
// what the multiserver figures need).
type serverMetrics struct {
	requests    *telemetry.Counter
	writes      *telemetry.Counter
	reads       *telemetry.Counter
	bytesStored *telemetry.Counter
	bytesServed *telemetry.Counter
	badRequests *telemetry.Counter
	idleSleeps  *telemetry.Counter
	rdmaIssued  *telemetry.Counter
	doorbells   *telemetry.Counter
}

func newServerMetrics(reg *telemetry.Registry, name string) serverMetrics {
	return serverMetrics{
		requests:    reg.Counter(name + ".requests"),
		writes:      reg.Counter(name + ".writes"),
		reads:       reg.Counter(name + ".reads"),
		bytesStored: reg.Counter(name + ".bytes_stored"),
		bytesServed: reg.Counter(name + ".bytes_served"),
		badRequests: reg.Counter(name + ".bad_requests"),
		idleSleeps:  reg.Counter(name + ".idle_sleeps"),
		rdmaIssued:  reg.Counter(name + ".rdma_issued"),
		doorbells:   reg.Counter(name + ".doorbells"),
	}
}

// srvReq is one request in flight inside the server. cont is nil until
// the request's first grant; after that it is the request's service
// state, carried across grants when quantum issue re-queues it.
type srvReq struct {
	conn *clientConn
	req  wire.Request
	cont *srvCont
}

// clientConn is the server-side state for one attached client.
type clientConn struct {
	qp       *ib.QP
	areaOff  int64
	areaSize int64
	recvMR   *ib.MR // RecvDepth request buffers

	// Tenancy state (nil/zero without ServerConfig.Tenancy).
	tenantID    string
	resident    map[int64]pageHeat // page index -> touch/write stamps
	reclaimKick func()             // wakes the owning device's reclaimer
}

// Server is the user-space memory server daemon.
type Server struct {
	env    *sim.Env
	name   string
	cfg    ServerConfig
	hca    *ib.HCA
	reqCQ  *ib.CQ // receive completions (requests)
	dataCQ *ib.CQ // RDMA + reply-send completions
	store  *ramdisk.RamDisk

	conns     map[*ib.QP]*clientConn
	ledger    *placement.Ledger
	tn        *srvTenancy // nil without cfg.Tenancy
	work      *tenant.Sched[srvReq]
	quantum   bool       // quantum issue: tenancy with the fair queue (see serve)
	pool      []*srvCont // staging pool: free per-request service state
	sleepQ    *sim.WaitQueue
	rdmaWaits map[uint64]*sim.Event
	nextWRID  uint64
	issueQ    *sim.Chan[rdmaIssue] // nil unless DoorbellBatch > 1
	tel       *telemetry.Registry
	met       serverMetrics
	tracer    *telemetry.Tracer
	lc        *telemetry.Lifecycle

	// Fault-injection state (driven by internal/faultsim).
	crashed     bool
	hangUntil   sim.Time
	starveUntil sim.Time
	starved     []starvedRecv // receive buffers withheld during starvation
}

// starvedRecv records one receive buffer whose repost was withheld by an
// active StarveRecv fault.
type starvedRecv struct {
	conn *clientConn
	wrid uint64
	slot int
}

// NewServer creates a memory server on the fabric and starts its daemon
// processes.
func NewServer(f *ib.Fabric, name string, cfg ServerConfig) *Server {
	env := f.Env()
	hca := f.NewHCA(name)
	tel := cfg.Telemetry
	if tel == nil {
		tel = telemetry.New(env)
	}
	s := &Server{
		tel:       tel,
		met:       newServerMetrics(tel, name),
		tracer:    tel.Tracer(),
		env:       env,
		name:      name,
		cfg:       cfg,
		hca:       hca,
		reqCQ:     hca.CreateCQ(name + "-req"),
		dataCQ:    hca.CreateCQ(name + "-data"),
		store:     ramdisk.New(cfg.StoreBytes, f.Config().Mem),
		conns:     make(map[*ib.QP]*clientConn),
		ledger:    placement.NewLedger(cfg.StoreBytes),
		quantum:   cfg.Tenancy != nil && !cfg.TenantFIFO,
		sleepQ:    sim.NewWaitQueue(env),
		rdmaWaits: make(map[uint64]*sim.Event),
	}
	// Every server issues from one queue: strict FIFO unless quantum issue
	// orders it by the byte-weighted fair queue.
	s.work = tenant.NewSched[srvReq](env, !s.quantum)
	// The staging pool covers the most requests in service at once: one
	// per worker, or under quantum issue one per provisioned credit (a
	// request in service holds a credit).
	for i := 0; i < s.poolSize(); i++ {
		s.pool = append(s.pool, &srvCont{buf: hca.RegisterMRAtSetup(make([]byte, cfg.StagingBytes))})
	}
	if cfg.Tenancy != nil {
		s.tnInit()
	}
	s.store.SetOpOverhead(cfg.StoreOpOverhead)
	s.reqCQ.SetEventHandler(func() { s.sleepQ.WakeAll() })
	env.Go(name+"-recv", s.recvLoop)
	env.Go(name+"-datacq", s.dataCQLoop)
	if cfg.DoorbellBatch > 1 {
		s.issueQ = sim.NewChan[rdmaIssue](env, 0)
		env.Go(name+"-issuer", s.rdmaIssuer)
	}
	workers := cfg.Workers
	if s.quantum {
		// Quantum issue runs a single worker: the wire is the contended
		// resource, and quantum-granular WFQ can only bound a small
		// tenant's wait if one scheduler grant means one transfer in
		// flight. The multi-worker RDMA/memcpy overlap is what the QoS
		// contract trades away; the FIFO control arm keeps it.
		workers = 1
	}
	for i := 0; i < workers; i++ {
		wname := fmt.Sprintf("%s-worker%d", name, i)
		env.Go(wname, func(p *sim.Proc) { s.worker(p, wname) })
	}
	return s
}

// poolSize is the staging pool's provisioned size.
func (s *Server) poolSize() int {
	if s.quantum {
		return s.cfg.Tenancy.Provisioned()
	}
	return s.cfg.Workers
}

// Name returns the server's name.
func (s *Server) Name() string { return s.name }

// Stats returns a snapshot of the server statistics, read back from the
// telemetry registry.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Requests:    s.met.requests.Value(),
		Writes:      s.met.writes.Value(),
		Reads:       s.met.reads.Value(),
		BytesStored: s.met.bytesStored.Value(),
		BytesServed: s.met.bytesServed.Value(),
		BadRequests: s.met.badRequests.Value(),
		IdleSleeps:  s.met.idleSleeps.Value(),
		RDMAIssued:  s.met.rdmaIssued.Value(),
		Doorbells:   s.met.doorbells.Value(),
	}
}

// Telemetry returns the registry the server reports into.
func (s *Server) Telemetry() *telemetry.Registry { return s.tel }

// lifecycle lazily resolves the request-lifecycle analyzer on the server's
// registry. On a cluster node the registry is shared with the client
// device, which enables the analyzer, so server-side timing stamps reach
// the client's breakdown; a server on a private registry resolves nil and
// clients fall back to coarse flight-time attribution.
func (s *Server) lifecycle() *telemetry.Lifecycle {
	if s.lc == nil {
		s.lc = s.tel.Lifecycle()
	}
	return s.lc
}

// Store exposes the backing RamDisk (tests verify stored bytes through it).
func (s *Server) Store() *ramdisk.RamDisk { return s.store }

// FreeBytes returns unallocated store space.
func (s *Server) FreeBytes() int64 { return s.ledger.Free() }

// Ledger exposes the area ownership ledger (hpbdctl placement/tenants).
func (s *Server) Ledger() *placement.Ledger { return s.ledger }

// DropClients closes every client connection (server shutdown or crash):
// clients observe flushed completions and fail their devices.
func (s *Server) DropClients() {
	// Close in QP-number order: each Close flushes completions into the
	// owning client, so the order must not inherit map order.
	qps := make([]*ib.QP, 0, len(s.conns))
	for qp := range s.conns {
		qps = append(qps, qp)
	}
	sort.Slice(qps, func(i, j int) bool { return qps[i].QPN() < qps[j].QPN() })
	for _, qp := range qps {
		qp.Close()
	}
}

// Crash kills the server permanently: every client QP closes (posted
// receives flush into the clients) and subsequent attaches are refused.
// Idempotent, so a schedule may crash an already-crashed server.
func (s *Server) Crash() {
	if s.crashed {
		return
	}
	s.crashed = true
	s.tracer.Instant(s.name, "crash")
	s.DropClients()
}

// Crashed reports whether the server has been crashed.
func (s *Server) Crashed() bool { return s.crashed }

// HangFor wedges the server for d of sim-time: requests keep being
// accepted and processed, but no reply leaves until the hang lifts.
// Overlapping hangs extend to the latest deadline.
func (s *Server) HangFor(d sim.Duration) {
	until := s.env.Now().Add(d)
	if until > s.hangUntil {
		s.hangUntil = until
	}
	s.tracer.InstantArgs(s.name, "hang", map[string]any{"dur_us": d.Micros()})
}

// StarveRecv stops receive-buffer reposting for d: arriving requests
// are still served, but their buffers are withheld, so the client's
// credit window drains and its senders stall on flow control.
func (s *Server) StarveRecv(d sim.Duration) {
	until := s.env.Now().Add(d)
	if until > s.starveUntil {
		s.starveUntil = until
	}
	s.tracer.InstantArgs(s.name, "starve-recv", map[string]any{"dur_us": d.Micros()})
	s.env.After(d, s.repostStarved)
}

// repostStarved returns withheld receive buffers once the starvation
// window has passed (a later StarveRecv extends the window; the earlier
// callback then finds it still active and leaves the work to the later
// one). Reposts happen in withholding order, never map order.
func (s *Server) repostStarved() {
	if s.env.Now() < s.starveUntil {
		return
	}
	if s.tn != nil {
		// Tenancy: each withheld slot re-enters through the credit bank
		// (acquire or withhold), then accumulated free credits drain to
		// whatever demand built up during the window.
		starved := s.starved
		s.starved = nil
		for _, sr := range starved {
			if sr.conn.qp.Closed() {
				continue
			}
			s.tnRepostOrWithhold(sr.conn, sr.wrid, sr.slot)
		}
		s.tnGrantDrain()
		return
	}
	for _, sr := range s.starved {
		if sr.conn.qp.Closed() {
			continue
		}
		_ = sr.conn.qp.PostRecv(ib.RecvWR{
			ID:    sr.wrid,
			Local: ib.Segment{MR: sr.conn.recvMR, Off: sr.slot * wire.RequestSize, Len: wire.RequestSize},
		})
	}
	s.starved = s.starved[:0]
}

// attach allocates an area of size bytes for a client and wires a QP; it
// is called by the client's ConnectServer during device setup (standing in
// for the paper's socket-based QP information exchange). tenantID names
// the owner in the area ledger; under tenancy it must appear in the QoS
// spec, and the connection's receive window is posted under that
// tenant's credits (slots its share cannot cover are withheld until the
// bank grants them).
func (s *Server) attach(clientQP *ib.QP, size int64, tenantID string) (*ib.QP, int64, error) {
	if s.crashed {
		return nil, 0, fmt.Errorf("hpbd: server %s is down", s.name)
	}
	if s.tn != nil && s.tn.spec.Find(tenantID) == nil {
		return nil, 0, fmt.Errorf("hpbd: server %s has no tenant %q in its QoS spec", s.name, tenantID)
	}
	if size > s.ledger.Free() {
		return nil, 0, fmt.Errorf("hpbd: server %s cannot export %d bytes (%d free)", s.name, size, s.FreeBytes())
	}
	off, err := s.ledger.Allocate(tenantID, size)
	if err != nil {
		return nil, 0, err
	}
	qp := s.hca.CreateQP(s.dataCQ, s.reqCQ)
	ib.Connect(clientQP, qp)
	conn := &clientConn{
		qp:       qp,
		areaOff:  off,
		areaSize: size,
		recvMR:   s.hca.RegisterMRAtSetup(make([]byte, s.cfg.RecvDepth*wire.RequestSize)),
		tenantID: tenantID,
	}
	s.conns[qp] = conn
	if s.tn != nil {
		conn.resident = make(map[int64]pageHeat)
		for i := 0; i < s.cfg.RecvDepth; i++ {
			s.tnRepostOrWithhold(conn, uint64(i), i)
		}
		return qp, conn.areaOff, nil
	}
	for i := 0; i < s.cfg.RecvDepth; i++ {
		if err := qp.PostRecv(ib.RecvWR{
			ID:    uint64(i),
			Local: ib.Segment{MR: conn.recvMR, Off: i * wire.RequestSize, Len: wire.RequestSize},
		}); err != nil {
			return nil, 0, err
		}
	}
	return qp, conn.areaOff, nil
}

// recvLoop is the daemon's main thread: it drains request completions,
// reposts receive buffers, and feeds the worker pool. After IdleSpin with
// no work it yields the CPU and sleeps until a completion event (§5).
func (s *Server) recvLoop(p *sim.Proc) {
	for {
		e, ok := s.reqCQ.WaitPollTimeout(p, s.cfg.IdleSpin)
		if !ok {
			// Yield: arm the completion event and sleep.
			s.met.idleSleeps.Inc()
			s.tracer.Instant(s.name, "idle-sleep")
			s.reqCQ.ReqNotify(false)
			if e2, ok2 := s.reqCQ.Poll(); ok2 {
				e = e2
			} else {
				s.sleepQ.Wait(p)
				p.Sleep(s.cfg.Host.Wakeup)
				s.tracer.Instant(s.name, "wakeup")
				continue
			}
		}
		s.handleRecvCQE(e)
	}
}

func (s *Server) handleRecvCQE(e ib.CQE) {
	if e.Op != ib.OpRecv {
		return
	}
	conn := s.conns[e.QP]
	if conn == nil || e.Status != ib.StatusSuccess {
		return
	}
	slot := int(e.WRID)
	buf := conn.recvMR.Buf[slot*wire.RequestSize : (slot+1)*wire.RequestSize]
	req, err := wire.UnmarshalRequest(buf)
	// Repost the receive buffer immediately; the request is decoded out.
	// Under an active receive-starvation fault the repost is withheld
	// instead (the request is still served), draining client credits.
	// Tenancy routes the repost through the credit bank: the arriving
	// request keeps the buffer's credit until its reply, and the
	// replacement buffer needs a credit of its own.
	if s.tn != nil {
		s.tnRepostOrWithhold(conn, e.WRID, slot)
	} else if s.env.Now() < s.starveUntil {
		s.starved = append(s.starved, starvedRecv{conn: conn, wrid: e.WRID, slot: slot})
	} else if perr := conn.qp.PostRecv(ib.RecvWR{
		ID:    e.WRID,
		Local: ib.Segment{MR: conn.recvMR, Off: slot * wire.RequestSize, Len: wire.RequestSize},
	}); perr != nil {
		return // connection torn down
	}
	if err != nil {
		s.met.badRequests.Inc()
		s.env.Go(s.name+"-nak", func(wp *sim.Proc) {
			nakMR := s.hca.RegisterMRAtSetup(make([]byte, wire.ReplySize))
			s.sendReply(wp, conn, nakMR, req.Handle, wire.StatusBadRequest)
			if s.tn != nil {
				s.tnRelease(conn)
			}
		})
		return
	}
	s.met.requests.Inc()
	// The work queue never blocks the receive loop; workers pop in FIFO
	// or, under quantum issue, virtual-finish order.
	s.work.Push(conn.tenantID, s.dispatchBytes(req), s.env.Now(), srvReq{conn: conn, req: req})
}

// dataCQLoop demultiplexes RDMA and reply-send completions to the waiting
// workers by work-request ID.
func (s *Server) dataCQLoop(p *sim.Proc) {
	for {
		e := s.dataCQ.WaitPoll(p)
		if ev, ok := s.rdmaWaits[e.WRID]; ok {
			delete(s.rdmaWaits, e.WRID)
			if e.Status != ib.StatusSuccess {
				// Surface the failure to the waiting worker via a
				// triggered event; the worker re-checks QP state.
				ev.Trigger()
				continue
			}
			ev.Trigger()
		}
		// Reply-send completions carry no registered waiter: drained here.
	}
}

// rdmaIssue is one RDMA operation queued for the batching issuer.
type rdmaIssue struct {
	conn *clientConn
	wr   ib.SendWR
}

// postRDMA issues one RDMA op on conn's QP and returns an event that
// triggers on completion. With DoorbellBatch > 1 the op is handed to the
// issuer process, which chains adjacent ops per connection under a single
// doorbell; the completion event contract is identical either way.
func (s *Server) postRDMA(p *sim.Proc, conn *clientConn, op ib.Opcode, local ib.Segment, remoteKey uint32, remoteOff int, flow uint64) (*sim.Event, error) {
	s.nextWRID++
	id := s.nextWRID
	ev := sim.NewEvent(s.env)
	wr := ib.SendWR{
		ID:        id,
		Op:        op,
		Local:     local,
		RemoteKey: remoteKey,
		RemoteOff: remoteOff,
		Flow:      flow,
	}
	if s.issueQ != nil {
		s.rdmaWaits[id] = ev
		s.issueQ.Send(p, rdmaIssue{conn: conn, wr: wr})
		s.met.rdmaIssued.Inc()
		return ev, nil
	}
	s.rdmaWaits[id] = ev
	if err := conn.qp.PostSend(p, wr); err != nil {
		delete(s.rdmaWaits, id)
		return nil, err
	}
	s.met.rdmaIssued.Inc()
	s.met.doorbells.Inc()
	return ev, nil
}

// rdmaIssuer drains queued RDMA operations and rings one doorbell per
// connection's share of each batch (§4.2.1's issue path, batched). Order
// within a connection is the workers' enqueue order, and grouping walks
// the batch slice in first-appearance order — map iteration never decides
// what gets chained.
func (s *Server) rdmaIssuer(p *sim.Proc) {
	batch := make([]rdmaIssue, 0, s.cfg.DoorbellBatch)
	for {
		first, ok := s.issueQ.Recv(p)
		if !ok {
			return
		}
		batch = append(batch[:0], first)
		for len(batch) < s.cfg.DoorbellBatch {
			it, more := s.issueQ.TryRecv()
			if !more {
				break
			}
			batch = append(batch, it)
		}
		for i := range batch {
			conn := batch[i].conn
			if conn == nil {
				continue // already chained with an earlier op
			}
			wrs := make([]ib.SendWR, 0, len(batch)-i)
			for j := i; j < len(batch); j++ {
				if batch[j].conn == conn {
					wrs = append(wrs, batch[j].wr)
					batch[j].conn = nil
				}
			}
			if err := conn.qp.PostSendBatch(p, wrs); err != nil {
				// Wake every chained worker; each re-checks QP state.
				for _, wr := range wrs {
					if ev, waiting := s.rdmaWaits[wr.ID]; waiting {
						delete(s.rdmaWaits, wr.ID)
						ev.Trigger()
					}
				}
				continue
			}
			s.met.doorbells.Inc()
		}
	}
}

// sendReply posts the completion control message through the caller's
// pre-registered reply buffer (solicited, so the client's armed event
// handler fires and wakes its receiver thread).
func (s *Server) sendReply(p *sim.Proc, conn *clientConn, replyMR *ib.MR, handle uint64, st wire.Status) {
	wire.MarshalReply(replyMR.Buf, &wire.Reply{Handle: handle, Status: st})
	_ = conn.qp.PostSend(p, ib.SendWR{
		ID:        0,
		Op:        ib.OpSend,
		Local:     ib.Segment{MR: replyMR, Off: 0, Len: wire.ReplySize},
		Solicited: true,
	})
}

// tenantQuantum is quantum issue's wire quantum in bytes: a request
// larger than one quantum moves one quantum per scheduler grant,
// re-entering the queue between chunks, so a small request never waits
// behind more than one quantum of a neighbor's bulk transfer. 16 KB
// keeps that residual wait near the small-request service time while
// holding per-chunk posting overhead to a few percent of a 128 KB
// transfer (DESIGN.md §12.3).
const tenantQuantum = 16 * 1024

// chunk is the next wire transfer's size for a request of n bytes with
// done bytes moved: one quantum under quantum issue, else the rest.
func (s *Server) chunk(n, done int) int {
	if s.quantum && n-done > tenantQuantum {
		return tenantQuantum
	}
	return n - done
}

// dispatchBytes is the byte cost the receive loop charges when it
// queues a fresh request. Under quantum issue every grant that moves a
// chunk over the wire is charged that chunk — so a flow's virtual time
// advances by exactly its payload bytes — which makes the dispatch
// charge the first chunk for writes (the first grant RDMA-reads it) and
// zero for reads (the first grant only dispatches the store read; the
// chunks charge themselves when the data is ready). FIFO issue charges
// the whole request up front; there the cost only feeds the byte
// counters.
func (s *Server) dispatchBytes(req wire.Request) int {
	n := int(req.Length)
	if !s.quantum {
		return n
	}
	if req.Type == wire.ReqRead {
		return 0
	}
	return s.chunk(n, 0)
}

// srvCont is one request's service state: its staging buffer, how many
// payload bytes have moved, the store stage's outcome, and the
// lifecycle bookkeeping its reply stamps. It comes from the staging
// pool with its buffer, so the request path allocates neither.
type srvCont struct {
	buf    *ib.MR
	done   int
	ready  bool // read: store stage ran, chunks may stream
	fail   bool // read: store stage failed
	wstart sim.Time
	copyNs sim.Duration
	flow   uint64
}

// getCont takes fresh service state from the staging pool (registering a
// spare is a defensive fallback; the pool is provisioned for the most
// requests that can be in service at once).
func (s *Server) getCont() *srvCont {
	n := len(s.pool)
	if n == 0 {
		return &srvCont{buf: s.hca.RegisterMRAtSetup(make([]byte, s.cfg.StagingBytes))}
	}
	c := s.pool[n-1]
	s.pool = s.pool[:n-1]
	*c = srvCont{buf: c.buf}
	return c
}

func (s *Server) putCont(c *srvCont) { s.pool = append(s.pool, c) }

// grant is one serve step's outcome.
type grant int

const (
	grantDone   grant = iota // request finished: its state returns to the pool
	grantMore                // partially transferred: re-queue the continuation
	grantParked              // handed to a store proc, which re-queues or finishes it
)

// worker pops requests from the work queue and serves them, providing
// the multiple-outstanding-RDMA + memcpy overlap of §4.2.1. wname labels
// this worker's trace track so the overlap is visible across workers.
// Under tenancy each pop is a scheduler tick: the credit bank's
// conservation check runs, a request's first grant observes its queueing
// delay into its tenant's sched-wait histogram, and a finished request
// releases its credit.
func (s *Server) worker(p *sim.Proc, wname string) {
	replyMR := s.hca.RegisterMRAtSetup(make([]byte, wire.ReplySize))
	for {
		item, pushAt, ok := s.work.Pop(p)
		if !ok {
			return
		}
		if s.tn != nil {
			s.tnCheck()
			if item.cont == nil {
				// Continuations are issue grants, not arrivals: only the
				// request's first grant measures its queueing delay.
				s.tn.met[item.conn.tenantID].schedWait.Observe(p.Now().Sub(pushAt))
			}
		}
		item, g := s.serve(p, wname, replyMR, item)
		switch g {
		case grantDone:
			s.putCont(item.cont)
			if s.tn != nil {
				s.tnRelease(item.conn)
			}
		case grantMore:
			s.work.Push(item.conn.tenantID, s.chunk(int(item.req.Length), item.cont.done), p.Now(), item)
		case grantParked:
			// A store proc owns the request now; it re-queues the
			// continuation or finishes it itself.
		}
	}
}

// serve runs one grant of item on the calling worker. The first grant
// validates the request and runs quota admission; each grant then moves
// one chunk over the wire (RDMA READ pulls a swap-out, RDMA WRITE pushes
// a swap-in) and the store stage copies between staging and the RamDisk.
// Without quantum issue a chunk is the whole request and the store stage
// runs inline on the worker's track, so one grant serves the request.
// Quantum issue moves one tenantQuantum per grant and runs the store
// stage in a spawned proc on the "<name>-store" track, off the issue
// worker entirely. Two properties fall out, and both are load-bearing
// for isolation:
//
//   - a competing tenant's small request waits at most one quantum of
//     wire time behind a neighbor's bulk transfer (the ingress link is
//     reserved at post time, so queue-order-only fairness cannot bound
//     this), and
//   - the issue worker never sits in the store's per-op overhead, so
//     that overhead — paid once per request either way — never becomes
//     the preemption granularity.
//
// Writes RDMA-read chunk by chunk, then store and reply (in a storer
// proc under quantum issue). Reads run the store stage first (a reader
// proc under quantum issue re-queues the request when the data is
// staged), then RDMA-write chunk by chunk and reply on the worker.
func (s *Server) serve(p *sim.Proc, wname string, replyMR *ib.MR, item srvReq) (srvReq, grant) {
	n := int(item.req.Length)
	c := item.cont
	if c == nil {
		// Lifecycle instrumentation: wstart anchors the server's interior
		// split of the request, copyNs accumulates the store's memcpy
		// share, and the client's flow (linked by handle through the
		// shared registry) continues on this worker's trace track.
		c = s.getCont()
		c.wstart = p.Now()
		var hasFlow bool
		c.flow, hasFlow = s.lifecycle().TakeFlow(item.req.Handle)
		if hasFlow {
			s.tracer.FlowStep(wname, "req", c.flow)
		}
		item.cont = c
		if st := s.admit(item.conn, item.req); st != wire.StatusOK {
			s.reply(p, item, replyMR, st)
			return item, grantDone
		}
	}
	if item.req.Type == wire.ReqWrite {
		if !s.transfer(p, wname, replyMR, item, ib.OpRDMARead, "rdma-read") {
			return item, grantDone
		}
		if c.done < n {
			return item, grantMore
		}
		if !s.quantum {
			s.reply(p, item, replyMR, s.stored(item, s.storeStage(p, wname, item)))
			return item, grantDone
		}
		s.env.Go(s.name+"-storer", func(sp *sim.Proc) {
			st := s.stored(item, s.storeStage(sp, s.name+"-store", item))
			if !item.conn.qp.Closed() {
				s.reply(sp, item, s.hca.RegisterMRAtSetup(make([]byte, wire.ReplySize)), st)
			}
			s.putCont(c)
			s.tnRelease(item.conn)
		})
		return item, grantParked
	}
	if !c.ready {
		if s.quantum {
			s.env.Go(s.name+"-reader", func(sp *sim.Proc) {
				c.fail = s.storeStage(sp, s.name+"-store", item) != nil
				c.ready = true
				s.work.Push(item.conn.tenantID, s.chunk(n, 0), sp.Now(), item)
			})
			return item, grantParked
		}
		c.fail = s.storeStage(p, wname, item) != nil
	}
	if c.fail {
		s.reply(p, item, replyMR, wire.StatusServerError)
		return item, grantDone
	}
	if !s.transfer(p, wname, replyMR, item, ib.OpRDMAWrite, "rdma-write") {
		return item, grantDone
	}
	if c.done < n {
		return item, grantMore
	}
	s.met.reads.Inc()
	s.met.bytesServed.Add(int64(n))
	if s.tn != nil {
		s.tnTouchRead(item.conn, item.req)
	}
	s.reply(p, item, replyMR, wire.StatusOK)
	return item, grantDone
}

// admit checks a request on its first grant and returns the status to
// refuse it with (StatusOK admits it). Under tenancy over-quota write
// growth is refused before any RDMA is issued; the client's recovery
// path backs off and retries.
func (s *Server) admit(conn *clientConn, req wire.Request) wire.Status {
	n := int(req.Length)
	if n <= 0 || n > s.cfg.StagingBytes ||
		req.Offset+uint64(n) > uint64(conn.areaSize) {
		s.met.badRequests.Inc()
		return wire.StatusOutOfRange
	}
	switch req.Type {
	case wire.ReqWrite:
		if s.tn != nil && !s.tnAdmitWrite(conn, req) {
			return wire.StatusRetry
		}
	case wire.ReqRead:
	default:
		s.met.badRequests.Inc()
		return wire.StatusBadRequest
	}
	return wire.StatusOK
}

// transfer moves the request's next chunk between its staging buffer and
// the client's pool and reports whether service goes on. A failed post
// replies with a server error; a connection closed under the transfer
// ends the request without a reply.
func (s *Server) transfer(p *sim.Proc, wname string, replyMR *ib.MR, item srvReq, op ib.Opcode, spanName string) bool {
	c, req := item.cont, item.req
	chunk := s.chunk(int(req.Length), c.done)
	span := s.tracer.Begin(wname, spanName)
	ev, err := s.postRDMA(p, item.conn, op,
		ib.Segment{MR: c.buf, Off: c.done, Len: chunk}, req.RKey, int(req.Addr)+c.done, c.flow)
	if err != nil {
		s.reply(p, item, replyMR, wire.StatusServerError)
		return false
	}
	ev.Wait(p)
	args := map[string]any{"bytes": chunk}
	if s.quantum {
		args["done"] = c.done
	}
	span.EndArgs(args)
	if item.conn.qp.Closed() {
		return false
	}
	c.done += chunk
	return true
}

// storeStage copies the request's payload between its staging buffer and
// the RamDisk store on the given trace track, adding the time to the
// request's memcpy share.
func (s *Server) storeStage(p *sim.Proc, track string, item srvReq) error {
	n := int(item.req.Length)
	off := item.conn.areaOff + int64(item.req.Offset)
	buf := item.cont.buf.Buf[:n]
	write := item.req.Type == wire.ReqWrite
	spanName := "store-read"
	if write {
		spanName = "store-write"
	}
	span := s.tracer.Begin(track, spanName)
	start := p.Now()
	var err error
	if write {
		err = s.store.WriteAt(p, buf, off)
	} else {
		err = s.store.ReadAt(p, buf, off)
	}
	item.cont.copyNs += p.Now().Sub(start)
	span.EndArgs(map[string]any{"bytes": n})
	return err
}

// stored accounts a write's finished store stage and returns its reply
// status: a stored write is counted and, under tenancy, its pages marked
// resident.
func (s *Server) stored(item srvReq, err error) wire.Status {
	if err != nil {
		return wire.StatusServerError
	}
	s.met.writes.Inc()
	s.met.bytesStored.Add(int64(item.req.Length))
	if s.tn != nil {
		s.tnMarkWrite(item.conn, item.req)
	}
	return wire.StatusOK
}

// reply stamps the server's share of the request's lifecycle and sends
// its completion through replyMR. An active hang fault wedges the reply
// (and its stamp) until the deadline; sleeping before the stamp keeps
// the client's exact stage partition intact — the hang shows up as
// server time, which is where it was actually spent.
func (s *Server) reply(p *sim.Proc, item srvReq, replyMR *ib.MR, st wire.Status) {
	if s.hangUntil > p.Now() {
		p.Sleep(s.hangUntil.Sub(p.Now()))
	}
	c := item.cont
	s.lifecycle().StampServer(item.req.Handle, telemetry.ServerStamp{
		Start: c.wstart, Reply: p.Now(), Copy: c.copyNs,
	})
	s.sendReply(p, item.conn, replyMR, item.req.Handle, st)
}
