package logger

import (
	"time"

	"lbrm/internal/obs"
	"lbrm/internal/transport"
	"lbrm/internal/vtime"
	"lbrm/internal/wire"
)

// PrimaryConfig configures a primary logging server or a replica (§2.2.3).
type PrimaryConfig struct {
	// Group is the multicast group to log.
	Group wire.GroupID
	// Retention bounds the log (primaries typically retain more than
	// secondaries).
	Retention Retention
	// Replicas lists replica logging servers to keep synchronized.
	Replicas []transport.Addr
	// ReplicaRank selects which replica's cumulative sequence number is
	// reported to the source as the replicated-logger sequence: 1 means
	// the most up-to-date replica (the paper's default), 2 the
	// second-most (stronger guarantee), and so on. Out-of-range values are
	// clamped into [1, len(Replicas)] at construction (PrimaryStats.
	// RankClamped counts the adjustment).
	ReplicaRank int
	// Quorum enables quorum replication mode when > 0: the primary
	// withholds the source-ack watermark until Quorum replicas have
	// applied each packet, replicating via the ack ring (DESIGN.md §12).
	// Deliberately unclamped against len(Replicas): an unsatisfiable
	// quorum parks acknowledgements and surfaces degraded health instead
	// of quietly weakening the durability guarantee. 0 disables the mode.
	Quorum int
	// QuorumDeadline is how long acknowledgements may stay parked behind
	// a lagging quorum before the primary reports degraded health.
	QuorumDeadline time.Duration
	// RingStallTimeout is how long the primary waits for an outstanding
	// ring token before declaring the ring stalled, falling back to
	// direct fan-in, and starting jittered-backoff ring repair.
	RingStallTimeout time.Duration
	// SyncRetry is the interval for re-sending unacknowledged LogSyncs.
	SyncRetry time.Duration
	// SyncBatch caps LogSync retransmissions per replica per retry tick.
	SyncBatch int
	// NackDelay aggregates the primary's own gap discoveries before it
	// NACKs the source.
	NackDelay time.Duration
	// RequestTimeout is the retry interval for unanswered NACKs to the
	// source.
	RequestTimeout time.Duration
	// MaxRetries bounds those retries.
	MaxRetries int
	// Replica starts the server in the replica role: it does not join the
	// multicast group and only applies LogSyncs until promoted.
	Replica bool
	// Peers lists the other replicas of the same log. A replica promoted to
	// primary whose log ends below the source's retention floor (packets the
	// source already released under its durability rule) backfills the gap
	// from these peers via LogStateQuery + NACK instead of serving a
	// permanent hole (§2.2.3 failover).
	Peers []transport.Addr
	// Epoch is the initial primary-authority epoch. The configured acting
	// primary defaults to 1 (matching the sender's initial epoch); replicas
	// start at 0 and adopt epochs from LogSyncs and promotions.
	Epoch uint32
	// UnsafeNoFence disables epoch fencing, reverting to the pre-epoch
	// demote-on-redirect heuristic. Test-only: it exists so the chaos
	// harness can demonstrate that the un-fenced-single-primary invariant
	// actually trips when fencing is removed. Never set in production.
	UnsafeNoFence bool
	// Obs receives metrics and trace events (nil = uninstrumented).
	Obs *obs.Sink
}

func (c PrimaryConfig) withDefaults() PrimaryConfig {
	if c.ReplicaRank == 0 {
		c.ReplicaRank = 1
	}
	if c.SyncRetry == 0 {
		c.SyncRetry = 200 * time.Millisecond
	}
	if c.QuorumDeadline == 0 {
		c.QuorumDeadline = 2 * time.Second
	}
	if c.RingStallTimeout == 0 {
		c.RingStallTimeout = 2 * c.SyncRetry
	}
	if c.SyncBatch == 0 {
		c.SyncBatch = 64
	}
	if c.NackDelay == 0 {
		c.NackDelay = 20 * time.Millisecond
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 500 * time.Millisecond
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 8
	}
	if !c.Replica && c.Epoch == 0 {
		c.Epoch = 1
	}
	return c
}

// PrimaryStats counts a primary logger's protocol activity.
type PrimaryStats struct {
	PacketsLogged    uint64
	Duplicates       uint64
	SourceAcks       uint64
	NacksToSource    uint64
	NacksFromClients uint64
	SeqsRequested    uint64
	RetransServed    uint64
	LogSyncsSent     uint64
	LogSyncAcks      uint64
	LogSyncsApplied  uint64
	StateQueries     uint64
	Promotions       uint64
	Demotions        uint64 // stepped down after a redirect named another primary
	// Promotion-gap backfill (§2.2.3): a promoted replica fetching packets
	// the source has already released from its peer replicas.
	BackfillsStarted uint64
	BackfillNacks    uint64
	BackfillSkipped  uint64 // sequence numbers given up as unrecoverable
	// Epoch fencing (§2.2.3 failover hygiene).
	StaleSyncs     uint64 // LogSyncs dropped for carrying an old epoch
	StaleSyncAcks  uint64 // LogSyncAcks dropped for carrying an old epoch
	StaleRedirects uint64 // redirects ignored for carrying an old epoch
	StalePromotes  uint64 // promotions ignored for carrying an old epoch
	// LogSync advance records (watermark jumps across skipped holes).
	AdvancesSent    uint64
	AdvancesApplied uint64
	Malformed       uint64
	// Quorum replication mode (DESIGN.md §12).
	QuorumLaunched     uint64 // ring tokens launched (one per logged packet)
	QuorumForwarded    uint64 // ring tokens forwarded (replica role)
	QuorumApplied      uint64 // packets applied from ring tokens (replica role)
	QuorumReturns      uint64 // data tokens that completed the ring
	AcksParked         uint64 // source acks capped below the log watermark
	QuorumDegradations uint64 // lagging episodes that outlived QuorumDeadline
	RingStalls         uint64 // ring stall detections (fallback to direct fan-in)
	RingRepairs        uint64 // successful ring re-formations (probe returned)
	RingProbes         uint64 // repair probe tokens launched
	RingConfigsSent    uint64 // ring role installations sent to replicas
	RingConfigsApplied uint64 // ring roles this replica accepted
	StaleQuorumAcks    uint64 // ring tokens fenced for an old epoch
	StaleRingTokens    uint64 // ring tokens dropped for a superseded ring version
	StaleRingConfigs   uint64 // ring configs fenced or superseded
	RankClamped        uint64 // out-of-range ReplicaRank clamped at construction
}

// Primary is the primary logging server: it logs every packet from the
// source (recovering its own losses directly from the source, which buffers
// until acknowledged), acknowledges the source with the dual sequence
// numbers of §2.2.3, serves retransmission requests, and replicates the log.
//
// With cfg.Replica it starts as a passive replica that applies LogSyncs
// and answers state queries until a TypePromote arrives.
type Primary struct {
	cfg      PrimaryConfig
	env      transport.Env
	streams  map[StreamKey]*priStream
	replicas []*replicaState
	stats    PrimaryStats
	replica  bool
	stopped  bool
	// epoch is the highest primary-authority epoch observed (or held, when
	// acting). Authority-bearing traffic below it is fenced; observing a
	// higher one while acting demotes this server deterministically.
	epoch uint32
	// syncTimer drives the LogSync repair tick; syncIdle counts consecutive
	// ticks with nothing to send, driving the idle backoff.
	syncTimer vtime.Timer
	syncIdle  int
	// backfill is the active promotion-gap backfill episode (nil when none).
	backfill *backfillState
	// last is a one-entry stream cache (see Secondary.last).
	last *priStream
	// q is the quorum-mode ring state (nil while the mode is off or the
	// server has not yet acted as primary with cfg.Quorum > 0).
	q *quorumState
	// ring is this server's replica-side ring role (forwarding hop).
	ring ringRole
	// rankBuf is the reusable per-replica watermark sort buffer, keeping
	// replicaSeq/quorumSeq allocation-free on the ack hot path.
	rankBuf []uint64
	// wmBuf is the reusable ring-token watermark buffer for the replica
	// forward hop (the decoded slice aliases Decoder storage that must not
	// be grown in place).
	wmBuf []uint64
	// dec recycles NACK range storage across decodes.
	dec wire.Decoder
	// scratch is the reusable wire-encoding buffer (bindings copy).
	scratch []byte
	// mx caches the preregistered metric handles (all nil-safe).
	mx primaryMetrics
}

// primaryMetrics holds the primary's preregistered observability handles.
type primaryMetrics struct {
	sink            *obs.Sink
	tx              *obs.ClassCounters
	logged          *obs.Counter
	duplicates      *obs.Counter
	nacksReceived   *obs.Counter
	sourceAcks      *obs.Counter
	logSyncsSent    *obs.Counter
	logSyncsApplied *obs.Counter
	retransServed   *obs.Counter
	nacksToSource   *obs.Counter
	backfillNacks   *obs.Counter
	promotions      *obs.Counter
	demotions       *obs.Counter
	backfills       *obs.Counter
	backfillSkipped *obs.Counter
	staleSyncs      *obs.Counter
	staleSyncAcks   *obs.Counter
	staleRedirects  *obs.Counter
	stalePromotes   *obs.Counter
	advancesSent    *obs.Counter
	advancesApplied *obs.Counter
	epoch           *obs.Gauge
	// Quorum replication mode.
	quorumApplied *obs.Counter
	acksParked    *obs.Counter
	ringStalls    *obs.Counter
	ringRepairs   *obs.Counter
	quorumDepth   *obs.Gauge
	quorumHealth  *obs.Gauge
	quorumLag     *obs.Histogram
	ringRTT       *obs.Histogram
}

func newPrimaryMetrics(sink *obs.Sink) primaryMetrics {
	return primaryMetrics{
		sink:       sink,
		tx:         sink.Classes("primary.tx", wire.TrafficClassNames()),
		logged:     sink.Counter("primary.logged"),
		duplicates: sink.Counter("primary.duplicates"),
		// nacks_received is the primary's inbound escalation load — the
		// health engine's storm/escalation signal (DESIGN.md §15).
		nacksReceived:   sink.Counter("primary.nacks_received"),
		sourceAcks:      sink.Counter("primary.source_acks"),
		logSyncsSent:    sink.Counter("primary.logsyncs_sent"),
		logSyncsApplied: sink.Counter("primary.logsyncs_applied"),
		retransServed:   sink.Counter("primary.retrans_served"),
		nacksToSource:   sink.Counter("primary.nacks_to_source"),
		backfillNacks:   sink.Counter("primary.backfill_nacks"),
		promotions:      sink.Counter("primary.promotions"),
		demotions:       sink.Counter("primary.demotions"),
		backfills:       sink.Counter("primary.backfills"),
		backfillSkipped: sink.Counter("primary.backfill_skipped"),
		staleSyncs:      sink.Counter("primary.fence.stale_syncs"),
		staleSyncAcks:   sink.Counter("primary.fence.stale_sync_acks"),
		staleRedirects:  sink.Counter("primary.fence.stale_redirects"),
		stalePromotes:   sink.Counter("primary.fence.stale_promotes"),
		advancesSent:    sink.Counter("primary.advances_sent"),
		advancesApplied: sink.Counter("primary.advances_applied"),
		epoch:           sink.Gauge("primary.epoch"),
		quorumApplied:   sink.Counter("primary.quorum.applied"),
		acksParked:      sink.Counter("primary.quorum.acks_parked"),
		ringStalls:      sink.Counter("primary.quorum.ring_stalls"),
		ringRepairs:     sink.Counter("primary.quorum.ring_repairs"),
		quorumDepth:     sink.Gauge("primary.quorum.depth"),
		quorumHealth:    sink.Gauge("primary.quorum.health"),
		quorumLag: sink.Histogram("primary.quorum.replication_lag",
			[]uint64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}),
		ringRTT: sink.Histogram("primary.quorum.ring_rtt_ms",
			[]uint64{1, 2, 5, 10, 25, 50, 100, 250}),
	}
}

type priStream struct {
	key    StreamKey
	store  *Store
	source transport.Addr
	// pendingReq holds downstream requesters waiting for packets we lack.
	pendingReq map[uint64]map[transport.Addr]bool
	// fetch state toward the source.
	nackTimer  vtime.Timer
	retryTimer vtime.Timer
	retries    int
	// Quorum mode: lastQuorumAck is the highest quorum-gated watermark
	// minted toward the source (never regresses — a replica restart may
	// pull the truthful quorum watermark back, but the promise already
	// made stands); lastAckSeq/lastAckAt rate-limit re-acks at a parked
	// watermark, which only serve as primary-liveness proof.
	lastQuorumAck uint64
	lastAckSeq    uint64
	lastAckAt     int64
}

type replicaState struct {
	addr  transport.Addr
	acked map[StreamKey]uint64 // cumulative LogSyncAck per stream
	// lastSeen is when the replica last proved liveness (LogSyncAck or a
	// ring-token hop); ring repair prefers recently-seen replicas.
	lastSeen int64
}

// backfillState tracks a promoted replica's fetch of the packets released
// by the source before the old primary died (§2.2.3 failover gap).
type backfillState struct {
	st      *priStream
	floor   uint64 // the source's release watermark: we must hold ≤ floor
	retries int
	// lastContig/fruitless detect stalled episodes: rounds that close no
	// part of the hole. Peers that are alive but equally cold can never
	// help, so a few fruitless rounds skip the hole early instead of
	// riding the full backed-off MaxRetries schedule.
	lastContig uint64
	fruitless  int
	timer      vtime.Timer
}

// NewPrimary returns a primary logger (or replica) for cfg.
func NewPrimary(cfg PrimaryConfig) *Primary {
	cfg = cfg.withDefaults()
	p := &Primary{
		cfg:     cfg,
		streams: make(map[StreamKey]*priStream),
		replica: cfg.Replica,
		epoch:   cfg.Epoch,
		mx:      newPrimaryMetrics(cfg.Obs),
	}
	p.mx.epoch.Set(int64(cfg.Epoch))
	// Validate ReplicaRank against the configured replica set: a negative
	// rank or one past the roster cannot select anything meaningful, so it
	// is clamped into range (and counted) rather than silently misreported
	// or left to index out of bounds on a future roster change.
	if p.cfg.ReplicaRank < 1 {
		p.cfg.ReplicaRank = 1
		p.stats.RankClamped++
	} else if n := len(p.cfg.Replicas); n > 0 && p.cfg.ReplicaRank > n {
		p.cfg.ReplicaRank = n
		p.stats.RankClamped++
	}
	if p.cfg.Quorum < 0 {
		p.cfg.Quorum = 0
	}
	for _, a := range cfg.Replicas {
		p.replicas = append(p.replicas, &replicaState{addr: a, acked: make(map[StreamKey]uint64)})
	}
	return p
}

// Stats returns a snapshot of the logger's counters.
func (p *Primary) Stats() PrimaryStats { return p.stats }

// Stop halts the logger's timers and packet processing and releases any
// disk spill files. Safe to call once.
func (p *Primary) Stop() {
	p.stopped = true
	for _, st := range p.streams {
		st.store.Close()
	}
}

// after schedules fn guarded by the stopped flag.
func (p *Primary) after(d time.Duration, fn func()) vtime.Timer {
	return p.env.AfterFunc(d, func() {
		if !p.stopped {
			fn()
		}
	})
}

// IsReplica reports whether the server is still in the replica role.
func (p *Primary) IsReplica() bool { return p.replica }

// Epoch returns the highest primary-authority epoch this server has held
// or observed.
func (p *Primary) Epoch() uint32 { return p.epoch }

// staleAuthority reports whether authority-bearing traffic at epoch e must
// be fenced (dropped without effect).
func (p *Primary) staleAuthority(e uint32) bool {
	return !p.cfg.UnsafeNoFence && e < p.epoch
}

// observeEpoch folds an observed primary epoch into p.epoch. Seeing a
// higher epoch while acting means the source elected someone else and this
// server missed the announcement (typically it was partitioned away): it
// self-demotes deterministically and the return value is true. This is the
// fencing discipline of view-numbered leader election — demote on evidence,
// not on heuristics.
func (p *Primary) observeEpoch(e uint32) bool {
	if p.cfg.UnsafeNoFence || e <= p.epoch {
		return false
	}
	old := p.epoch
	p.epoch = e
	p.mx.sink.Emit(p.now(), obs.KindEpochBump, uint64(old), uint64(e), 0)
	p.mx.epoch.Set(int64(e))
	if !p.replica {
		p.demote()
		return true
	}
	return false
}

// now returns the environment clock in nanoseconds (0 before Start).
func (p *Primary) now() int64 {
	if p.env == nil {
		return 0
	}
	return p.env.Now().UnixNano()
}

// demote steps an acting primary down to the replica role: the log is kept
// and NACKs/state queries keep being served, but the server leaves the data
// group and stops acknowledging sources. Any backfill episode dies with the
// role; the new primary owns closing the hole now.
func (p *Primary) demote() {
	p.replica = true
	p.ring.active = false // wait for the new primary to install a fresh role
	p.stats.Demotions++
	p.mx.demotions.Inc()
	p.mx.sink.Emit(p.now(), obs.KindDemote, uint64(p.epoch), uint64(p.epoch), 0)
	if bf := p.backfill; bf != nil {
		if bf.timer != nil {
			bf.timer.Stop()
			bf.timer = nil
		}
		p.backfill = nil
	}
	p.env.Leave(p.cfg.Group)
}

// Store returns the log store for a stream (nil if unknown).
func (p *Primary) Store(key StreamKey) *Store {
	if st := p.streams[key]; st != nil {
		return st.store
	}
	return nil
}

// Contiguous returns the cumulative logged sequence for a stream.
func (p *Primary) Contiguous(key StreamKey) uint64 {
	if st := p.streams[key]; st != nil {
		return st.store.Contiguous()
	}
	return 0
}

// Start implements transport.Handler.
func (p *Primary) Start(env transport.Env) {
	p.env = env
	if !p.replica {
		p.joinAndSync()
		// A configured acting primary starts with an optimistic full ring:
		// every replica is assumed live until the ring proves otherwise.
		p.initQuorum(true)
	}
	p.startEviction()
}

func (p *Primary) joinAndSync() {
	if err := p.env.Join(p.cfg.Group); err != nil {
		panic("logger: primary failed to join group: " + err.Error())
	}
	if len(p.replicas) > 0 {
		p.armSync(p.syncInterval())
	}
}

// armSync (re)schedules the LogSync repair tick, reusing one timer handle.
func (p *Primary) armSync(d time.Duration) {
	if p.syncTimer != nil {
		p.syncTimer.Reset(d)
		return
	}
	p.syncTimer = p.after(d, p.syncTick)
}

// syncInterval is the next repair-tick delay: SyncRetry jittered ±25%,
// doubling while consecutive ticks find nothing to send. Jitter keeps
// primaries of different groups (and a promoted replica next to a restarted
// one) from ticking in lockstep; the idle backoff keeps a fully synchronized
// replica set nearly silent.
func (p *Primary) syncInterval() time.Duration {
	return transport.Backoff{Base: p.cfg.SyncRetry}.Interval(p.syncIdle, p.env.Rand())
}

// startEviction arms the periodic retention tick (runs in both roles).
func (p *Primary) startEviction() {
	if d := evictInterval(p.cfg.Retention); d > 0 {
		p.after(d, p.evictTick)
	}
}

// evictTick enforces age-based retention even on idle streams.
func (p *Primary) evictTick() {
	now := p.env.Now()
	for _, st := range p.streams {
		st.store.EvictExpired(now)
	}
	p.after(evictInterval(p.cfg.Retention), p.evictTick)
}

// Recv implements transport.Handler.
func (p *Primary) Recv(from transport.Addr, data []byte) {
	if p.stopped {
		return
	}
	var pkt wire.Packet
	// The shared Decoder recycles NACK range storage across packets:
	// pkt.Ranges is dead once this call returns, so the alias is safe.
	if err := p.dec.Unmarshal(data, &pkt); err != nil {
		p.stats.Malformed++
		return
	}
	if pkt.Group != p.cfg.Group {
		return
	}
	switch pkt.Type {
	case wire.TypeData, wire.TypeRetrans:
		if !p.replica {
			p.onData(from, &pkt)
		}
	case wire.TypeHeartbeat:
		if !p.replica {
			p.onHeartbeat(from, &pkt)
		}
	case wire.TypeNack:
		p.onNack(from, &pkt)
	case wire.TypeLogSync:
		p.onLogSync(from, &pkt)
	case wire.TypeLogSyncAck:
		p.onLogSyncAck(from, &pkt)
	case wire.TypeQuorumAck:
		p.onQuorumAck(&pkt)
	case wire.TypeRingConfig:
		p.onRingConfig(&pkt)
	case wire.TypeLogStateQuery:
		p.onStateQuery(from, &pkt)
	case wire.TypeLogStateReply:
		p.onPeerStateReply(from, &pkt)
	case wire.TypePromote:
		p.onPromote(from, &pkt)
	case wire.TypePrimaryRedirect:
		p.onPrimaryRedirect(&pkt)
	}
}

func (p *Primary) stream(key StreamKey) *priStream {
	if st := p.last; st != nil && st.key == key {
		return st
	}
	st := p.streams[key]
	if st == nil {
		st = &priStream{
			key:        key,
			store:      NewStore(p.cfg.Retention),
			pendingReq: make(map[uint64]map[transport.Addr]bool),
		}
		p.streams[key] = st
	}
	p.last = st
	return st
}

func (p *Primary) onData(from transport.Addr, pkt *wire.Packet) {
	st := p.stream(KeyOf(pkt))
	if pkt.Type == wire.TypeData && pkt.Flags&wire.FlagFromLogger == 0 {
		st.source = from
	}
	if st.store.Put(pkt.Seq, pkt.Payload, p.env.Now()) {
		p.stats.PacketsLogged++
		p.mx.logged.Inc()
		p.replicateOrRing(st, pkt.Seq)
	} else {
		p.stats.Duplicates++
		p.mx.duplicates.Inc()
	}
	if waiters := st.pendingReq[pkt.Seq]; len(waiters) > 0 {
		delete(st.pendingReq, pkt.Seq)
		for w := range waiters {
			p.retransmit(st, pkt.Seq, w)
		}
	}
	// A backfill episode completes as soon as the hole closes, not at the
	// next retry tick.
	if bf := p.backfill; bf != nil && bf.st == st && st.store.Contiguous() >= bf.floor {
		p.finishBackfill(bf)
	}
	p.ackSource(st)
	p.checkGaps(st)
}

func (p *Primary) onHeartbeat(from transport.Addr, pkt *wire.Packet) {
	// The piggybacked primary epoch is the post-partition fencing path: a
	// stale primary that missed the redirect multicast learns from the very
	// next heartbeat that a newer epoch was minted, and steps down before
	// acking anything else.
	if p.observeEpoch(pkt.PrimaryEpoch) {
		return
	}
	st := p.stream(KeyOf(pkt))
	st.source = from
	if pkt.Flags&wire.FlagInlineData != 0 && pkt.Seq > 0 {
		if st.store.Put(pkt.Seq, pkt.Payload, p.env.Now()) {
			p.stats.PacketsLogged++
			p.mx.logged.Inc()
			p.replicateOrRing(st, pkt.Seq)
			p.ackSource(st)
		}
	}
	// Heartbeats reveal losses: the heartbeat's seq is the last data seq.
	if pkt.Seq > st.store.Contiguous() {
		p.checkGapsUpTo(st, pkt.Seq)
	}
}

// ackSource sends the dual-sequence-number acknowledgement to the source:
// the primary's cumulative logged sequence, and the replicated-logger
// sequence (the rank-selected replica's cumulative ack). With no replicas
// configured they coincide, so a source configured to wait for replica
// durability still makes progress.
//
// In quorum mode (cfg.Quorum > 0) the acknowledged watermark is capped at
// the write-quorum watermark: the source never releases a packet fewer than
// Quorum replicas have applied. Capped ("parked") acks are rate-limited —
// they carry no new information and only prove the primary is alive.
func (p *Primary) ackSource(st *priStream) {
	if st.source == nil {
		return
	}
	seq := st.store.Contiguous()
	repSeq := p.replicaSeq(st.key)
	if p.quorumOn() {
		contig := seq
		if qs := p.quorumSeq(st.key); qs < seq {
			seq = qs
		}
		// The minted watermark never regresses (see priStream.lastQuorumAck).
		if seq < st.lastQuorumAck {
			seq = st.lastQuorumAck
		} else {
			st.lastQuorumAck = seq
		}
		if repSeq > seq {
			repSeq = seq
		}
		now := p.now()
		if seq < contig {
			if seq == st.lastAckSeq && now-st.lastAckAt < int64(p.cfg.SyncRetry) {
				return // parked duplicate; the next token return re-acks
			}
			p.stats.AcksParked++
			p.mx.acksParked.Inc()
			p.mx.quorumLag.Observe(contig - seq)
		}
		st.lastAckSeq = seq
		st.lastAckAt = now
	}
	ack := wire.Packet{
		Type: wire.TypeSourceAck, Source: st.key.Source, Group: st.key.Group,
		Seq: seq, ReplicaSeq: repSeq,
		Epoch: p.epoch,
	}
	p.send(st.source, &ack)
	p.stats.SourceAcks++
	p.mx.sourceAcks.Inc()
}

// replicaSeq computes the replicated-logger sequence number for a stream.
func (p *Primary) replicaSeq(key StreamKey) uint64 {
	if len(p.replicas) == 0 {
		if st := p.streams[key]; st != nil {
			return st.store.Contiguous()
		}
		return 0
	}
	rank := p.cfg.ReplicaRank
	if rank > len(p.replicas) {
		rank = len(p.replicas)
	}
	return p.rankSeq(key, rank)
}

// rankSeq returns the rank-th largest per-replica cumulative watermark for
// the stream (1 = most up-to-date replica), or 0 when rank is out of range.
// It reuses p.rankBuf with an in-place insertion sort — replica sets are
// tiny and sort.Slice would allocate on the ack hot path.
func (p *Primary) rankSeq(key StreamKey, rank int) uint64 {
	if rank < 1 || rank > len(p.replicas) {
		return 0
	}
	buf := p.rankBuf[:0]
	for _, r := range p.replicas {
		buf = append(buf, r.acked[key])
	}
	p.rankBuf = buf
	for i := 1; i < len(buf); i++ {
		for j := i; j > 0 && buf[j] > buf[j-1]; j-- {
			buf[j], buf[j-1] = buf[j-1], buf[j]
		}
	}
	return buf[rank-1]
}

// replicate eagerly ships one just-logged packet to every replica.
func (p *Primary) replicate(st *priStream, seq uint64) {
	if len(p.replicas) == 0 {
		return
	}
	// Fresh work cancels the idle backoff: a loss of this eager copy should
	// be repaired within one base SyncRetry, not a backed-off multiple.
	if p.syncIdle > 0 {
		p.syncIdle = 0
		p.armSync(p.syncInterval())
	}
	payload, ok := st.store.Get(seq)
	if !ok {
		return
	}
	sync := wire.Packet{
		Type: wire.TypeLogSync, Source: st.key.Source, Group: st.key.Group,
		Seq: seq, Payload: payload, Epoch: p.epoch,
	}
	for _, r := range p.replicas {
		p.send(r.addr, &sync)
		p.stats.LogSyncsSent++
		p.mx.logSyncsSent.Inc()
	}
}

// sendAdvance ships a LogSync advance record: no payload, just "move your
// watermark past Seq". Without it a replica's cumulative ack sticks below
// any hole the primary skipped as unrecoverable, and a later promotion
// re-serves the whole skip through its own backfill.
func (p *Primary) sendAdvance(st *priStream, to transport.Addr, seq uint64) {
	adv := wire.Packet{
		Type: wire.TypeLogSync, Flags: wire.FlagLogAdvance,
		Source: st.key.Source, Group: st.key.Group,
		Seq: seq, Epoch: p.epoch,
	}
	p.send(to, &adv)
	p.stats.AdvancesSent++
	p.mx.advancesSent.Inc()
}

// syncTick periodically re-sends LogSyncs the replicas have not
// acknowledged.
func (p *Primary) syncTick() {
	anySent := false
	for _, r := range p.replicas {
		for key, st := range p.streams {
			contig := st.store.Contiguous()
			sent := 0
			for seq := r.acked[key] + 1; seq <= contig && sent < p.cfg.SyncBatch; seq++ {
				payload, ok := st.store.Get(seq)
				if !ok {
					// Evicted or skipped; the replica can never catch up on
					// this one. Tell it to advance its watermark across the
					// unservable range, then jump to the next servable packet
					// — without the advance record the replica's cumulative
					// ack sticks below the gap forever and this loop re-sends
					// the same batch every tick.
					next := st.store.NextRetained(seq + 1)
					if next == 0 || next > contig {
						p.sendAdvance(st, r.addr, contig)
						sent++
						anySent = true
						break
					}
					p.sendAdvance(st, r.addr, next-1)
					sent++
					anySent = true
					seq = next - 1
					continue
				}
				sync := wire.Packet{
					Type: wire.TypeLogSync, Source: key.Source, Group: key.Group,
					Seq: seq, Payload: payload, Epoch: p.epoch,
				}
				p.send(r.addr, &sync)
				p.stats.LogSyncsSent++
				p.mx.logSyncsSent.Inc()
				sent++
				anySent = true
			}
		}
	}
	if anySent {
		p.syncIdle = 0
	} else if p.syncIdle < 8 {
		p.syncIdle++
	}
	p.armSync(p.syncInterval())
}

func (p *Primary) onNack(from transport.Addr, pkt *wire.Packet) {
	st := p.stream(KeyOf(pkt))
	p.stats.NacksFromClients++
	p.mx.nacksReceived.Inc()
	budget := maxSeqsPerNack
	needFetch := false
	for _, r := range pkt.Ranges {
		for seq := r.From; seq <= r.To && budget > 0; seq++ {
			budget--
			p.stats.SeqsRequested++
			if st.store.Has(seq) {
				p.retransmit(st, seq, from)
				continue
			}
			if st.store.Seen(seq) {
				continue // evicted; unrecoverable here
			}
			w := st.pendingReq[seq]
			if w == nil {
				w = make(map[transport.Addr]bool)
				st.pendingReq[seq] = w
			}
			w[from] = true
			needFetch = true
		}
	}
	if needFetch {
		p.checkGaps(st)
	}
}

func (p *Primary) retransmit(st *priStream, seq uint64, to transport.Addr) {
	payload, ok := st.store.Get(seq)
	if !ok {
		return
	}
	// FlagViaPrimary classifies the repair as a §2.2.2 primary callback for
	// the flight recorder; a secondary relaying this packet propagates it.
	r := wire.Packet{
		Type:   wire.TypeRetrans,
		Flags:  wire.FlagRetransmission | wire.FlagFromLogger | wire.FlagViaPrimary,
		Source: st.key.Source, Group: st.key.Group, Seq: seq, Payload: payload,
	}
	p.send(to, &r)
	p.stats.RetransServed++
	p.mx.retransServed.Inc()
	p.mx.sink.EmitFlight(p.now(), obs.KindServe, seq, uint64(wire.PathPrimaryCallback), 0)
}

func (p *Primary) onLogSync(from transport.Addr, pkt *wire.Packet) {
	p.observeEpoch(pkt.Epoch)
	st := p.stream(KeyOf(pkt))
	if p.staleAuthority(pkt.Epoch) {
		// A fenced primary is still replicating. Do not apply its log, but
		// do ack with our (higher) epoch: the stale primary fences itself
		// the moment the ack arrives.
		p.stats.StaleSyncs++
		p.mx.staleSyncs.Inc()
		p.mx.sink.Emit(p.now(), obs.KindFenceHit, uint64(p.epoch), uint64(pkt.Epoch), uint64(pkt.Type))
		p.sendSyncAck(from, st)
		return
	}
	if pkt.Flags&wire.FlagLogAdvance != 0 {
		if pkt.Seq > st.store.Contiguous() {
			st.store.Advance(pkt.Seq)
			p.stats.AdvancesApplied++
			p.mx.advancesApplied.Inc()
			p.mx.sink.Emit(p.now(), obs.KindAdvance, pkt.Seq, 0, 0)
			// A promoted replica with replicas of its own forwards the
			// advance, like any other sync.
			if !p.replica {
				for _, r := range p.replicas {
					p.sendAdvance(st, r.addr, pkt.Seq)
				}
			}
		}
		p.sendSyncAck(from, st)
		return
	}
	if st.store.Put(pkt.Seq, pkt.Payload, p.env.Now()) {
		p.stats.LogSyncsApplied++
		p.mx.logSyncsApplied.Inc()
	}
	p.sendSyncAck(from, st)
	// A promoted replica with replicas of its own forwards the sync on.
	if !p.replica {
		p.replicateOrRing(st, pkt.Seq)
	}
}

func (p *Primary) sendSyncAck(to transport.Addr, st *priStream) {
	ack := wire.Packet{
		Type: wire.TypeLogSyncAck, Source: st.key.Source, Group: st.key.Group,
		Seq: st.store.Contiguous(), Epoch: p.epoch,
	}
	p.send(to, &ack)
}

func (p *Primary) onLogSyncAck(from transport.Addr, pkt *wire.Packet) {
	if p.observeEpoch(pkt.Epoch) {
		return // the replica knows a newer primary: we just self-demoted
	}
	if p.staleAuthority(pkt.Epoch) {
		p.stats.StaleSyncAcks++
		p.mx.staleSyncAcks.Inc()
		p.mx.sink.Emit(p.now(), obs.KindFenceHit, uint64(p.epoch), uint64(pkt.Epoch), uint64(pkt.Type))
		return
	}
	p.stats.LogSyncAcks++
	key := KeyOf(pkt)
	for _, r := range p.replicas {
		if r.addr == from {
			r.lastSeen = p.now()
			if pkt.Seq > r.acked[key] {
				r.acked[key] = pkt.Seq
				// Direct fan-in progress mints quorum-gated acks too (the
				// ring path acks on token return).
				if p.quorumOn() {
					if st := p.streams[key]; st != nil {
						p.ackSource(st)
					}
				}
			}
			return
		}
	}
}

func (p *Primary) onStateQuery(from transport.Addr, pkt *wire.Packet) {
	p.stats.StateQueries++
	key := KeyOf(pkt)
	var contig uint64
	if st := p.streams[key]; st != nil {
		contig = st.store.Contiguous()
	}
	reply := wire.Packet{
		Type: wire.TypeLogStateReply, Source: pkt.Source, Group: pkt.Group,
		Seq: contig, Epoch: p.epoch,
	}
	p.send(from, &reply)
}

// onPromote turns a replica into the acting primary: it joins the
// multicast group, records the promoting source's address, and from then
// on acknowledges and serves like a primary (§2.2.3).
//
// The packet's Seq carries the source's release watermark: every sequence
// number at or below it has left the source's retention buffer, so if this
// replica's log ends earlier (it was not actually the most up-to-date, or
// replication lagged the release rule), the gap can only be recovered from
// peer replicas — a backfill episode starts. The replica also adopts its
// peers as replication targets so the dual-sequence-number durability story
// survives the failover.
func (p *Primary) onPromote(from transport.Addr, pkt *wire.Packet) {
	if !p.cfg.UnsafeNoFence && pkt.Epoch < p.epoch {
		// A delayed or replayed promotion from a superseded election; acting
		// on it would resurrect exactly the split-brain the epoch prevents.
		p.stats.StalePromotes++
		p.mx.stalePromotes.Inc()
		p.mx.sink.Emit(p.now(), obs.KindFenceHit, uint64(p.epoch), uint64(pkt.Epoch), uint64(pkt.Type))
		return
	}
	if pkt.Epoch > p.epoch {
		p.mx.sink.Emit(p.now(), obs.KindEpochBump, uint64(p.epoch), uint64(pkt.Epoch), 0)
		p.epoch = pkt.Epoch
		p.mx.epoch.Set(int64(p.epoch))
	}
	if !p.replica {
		// Re-promoted while already acting (the sender re-elected us, e.g.
		// after a fruitless probe round): adopt the fresh epoch, refresh the
		// source address, and prove liveness; the roles are already right.
		st := p.stream(KeyOf(pkt))
		st.source = from
		if floor := pkt.Seq; floor > st.store.Contiguous() && p.backfill == nil {
			p.startBackfill(st, floor)
		}
		p.ackSource(st)
		return
	}
	p.replica = false
	p.ring.active = false // the ring role died with the old primary
	p.stats.Promotions++
	p.mx.promotions.Inc()
	p.mx.sink.Emit(p.now(), obs.KindPromote, uint64(p.epoch), pkt.Seq, 0)
	if len(p.replicas) == 0 {
		for _, a := range p.cfg.Peers {
			p.replicas = append(p.replicas, &replicaState{addr: a, acked: make(map[StreamKey]uint64)})
		}
	}
	p.joinAndSync()
	// A promoted primary cannot assume the old ring survived the fault that
	// elected it: start in direct fan-in and probe a ring out of the peers
	// that prove themselves live.
	p.initQuorum(false)
	st := p.stream(KeyOf(pkt))
	st.source = from
	if floor := pkt.Seq; floor > st.store.Contiguous() {
		p.startBackfill(st, floor)
	}
	p.ackSource(st)
}

// onPrimaryRedirect handles the source's group-wide announcement of where
// the log lives now. An acting primary that is NOT the named server has
// been superseded — the source elected someone else, typically after this
// server was unreachable long enough to be declared dead — and must step
// down, or the deployment ends up with two acting primaries (split-brain):
// both acknowledge sources and serve clients from logs that then diverge.
// Demotion is safe: the log is kept, the server keeps answering NACKs and
// state queries like any replica, and it can be promoted again later.
//
// The redirect carries the epoch of the election that produced it: one
// from an older epoch is fenced (a delayed multicast must not demote the
// rightful primary of a later election).
func (p *Primary) onPrimaryRedirect(pkt *wire.Packet) {
	if p.replica {
		return
	}
	addr, err := p.env.ParseAddr(pkt.Addr)
	if err != nil {
		p.stats.Malformed++
		return
	}
	if !p.cfg.UnsafeNoFence && pkt.Epoch < p.epoch {
		p.stats.StaleRedirects++
		p.mx.staleRedirects.Inc()
		p.mx.sink.Emit(p.now(), obs.KindFenceHit, uint64(p.epoch), uint64(pkt.Epoch), uint64(pkt.Type))
		return
	}
	if pkt.Epoch > p.epoch && !p.cfg.UnsafeNoFence {
		p.mx.sink.Emit(p.now(), obs.KindEpochBump, uint64(p.epoch), uint64(pkt.Epoch), 0)
		p.epoch = pkt.Epoch
		p.mx.epoch.Set(int64(p.epoch))
	}
	if addr.String() == p.env.LocalAddr().String() {
		return // the redirect names us: we are the rightful primary
	}
	p.demote()
}

// startBackfill begins recovering (Contiguous, floor] — packets the source
// has released — from peer replicas. Peers are probed with LogStateQuery
// (confirming liveness and waking their state); any reply triggers a NACK
// for the still-missing ranges, which the peer serves from its log. When no
// peer can help within MaxRetries, the hole is declared unrecoverable and
// skipped so the acknowledgement watermark (and with it the source's
// retention buffer) is not wedged forever.
func (p *Primary) startBackfill(st *priStream, floor uint64) {
	if len(p.cfg.Peers) == 0 {
		p.skipBackfillHole(st, floor)
		return
	}
	p.stats.BackfillsStarted++
	p.mx.backfills.Inc()
	bf := &backfillState{st: st, floor: floor, lastContig: st.store.Contiguous()}
	p.backfill = bf
	q := wire.Packet{
		Type: wire.TypeLogStateQuery, Source: st.key.Source, Group: st.key.Group,
	}
	for _, a := range p.cfg.Peers {
		p.send(a, &q)
	}
	p.armBackfillRetry(bf)
}

func (p *Primary) armBackfillRetry(bf *backfillState) {
	d := transport.Backoff{Base: p.cfg.RequestTimeout}.Interval(bf.retries, p.env.Rand())
	bf.timer = p.after(d, func() {
		bf.timer = nil
		p.backfillRetry(bf)
	})
}

// backfillRetry re-probes the peers (or gives up) when a retry interval
// elapses without the hole closing.
func (p *Primary) backfillRetry(bf *backfillState) {
	if p.backfill != bf {
		return
	}
	contig := bf.st.store.Contiguous()
	if contig >= bf.floor {
		p.finishBackfill(bf)
		return
	}
	if contig > bf.lastContig {
		bf.lastContig = contig
		bf.fruitless = 0
	} else {
		bf.fruitless++
	}
	bf.retries++
	if bf.retries >= p.cfg.MaxRetries || bf.fruitless >= 3 {
		p.skipBackfillHole(bf.st, bf.floor)
		p.finishBackfill(bf)
		return
	}
	// Keep acknowledging the source while the episode runs: the ack carries
	// an unchanged watermark but proves this primary is alive and working,
	// so the source does not keep re-electing while the log recovers.
	p.ackSource(bf.st)
	q := wire.Packet{
		Type: wire.TypeLogStateQuery, Source: bf.st.key.Source, Group: bf.st.key.Group,
	}
	for _, a := range p.cfg.Peers {
		p.send(a, &q)
	}
	p.armBackfillRetry(bf)
}

// onPeerStateReply handles a peer replica's LogStateReply during backfill:
// a live peer is asked (via NACK) for everything still missing below the
// floor, regardless of its reported contiguous sequence — a peer whose own
// log has an early hole may still hold the later packets we need.
func (p *Primary) onPeerStateReply(from transport.Addr, pkt *wire.Packet) {
	bf := p.backfill
	if bf == nil {
		return
	}
	st := bf.st
	if KeyOf(pkt) != st.key {
		return
	}
	if st.store.Contiguous() >= bf.floor {
		p.finishBackfill(bf)
		return
	}
	ranges := st.store.Missing(bf.floor, wire.MaxNackRanges)
	if len(ranges) == 0 {
		p.finishBackfill(bf)
		return
	}
	nack := wire.Packet{
		Type: wire.TypeNack, Source: st.key.Source, Group: st.key.Group,
		Ranges: ranges,
	}
	p.send(from, &nack)
	p.stats.BackfillNacks++
	p.mx.backfillNacks.Inc()
}

// finishBackfill ends the episode (the hole is closed or skipped) and
// re-acknowledges the source with the advanced watermark.
func (p *Primary) finishBackfill(bf *backfillState) {
	if bf.timer != nil {
		bf.timer.Stop()
		bf.timer = nil
	}
	if p.backfill == bf {
		p.backfill = nil
	}
	p.ackSource(bf.st)
}

// skipBackfillHole declares (Contiguous, floor] unrecoverable: no peer can
// serve it and the source has released it. The store advances past the hole
// so acknowledgement progress resumes; clients NACKing into the hole see it
// as evicted and abandon through their own escalation path.
func (p *Primary) skipBackfillHole(st *priStream, floor uint64) {
	contig := st.store.Contiguous()
	if floor <= contig {
		return
	}
	missing := uint64(0)
	for _, r := range st.store.Missing(floor, 0) {
		missing += r.Count()
	}
	st.store.Advance(floor)
	p.stats.BackfillSkipped += missing
	p.mx.backfillSkipped.Add(missing)
	p.mx.sink.Emit(p.now(), obs.KindSkipAhead, contig, floor, missing)
	// Replicas can never recover the hole either (this primary was elected
	// as the most up-to-date copy): ship them an advance record so their
	// cumulative acks cross the gap instead of wedging below it, and so a
	// later promotion does not re-serve the whole skip.
	for _, r := range p.replicas {
		p.sendAdvance(st, r.addr, floor)
	}
}

// checkGaps arms the aggregation timer for the primary's own recovery from
// the source.
func (p *Primary) checkGaps(st *priStream) {
	p.checkGapsUpTo(st, 0)
}

func (p *Primary) checkGapsUpTo(st *priStream, hi uint64) {
	if hi < st.store.Highest() {
		hi = st.store.Highest()
	}
	if hi <= st.store.Contiguous() && len(st.pendingReq) == 0 {
		return
	}
	if st.nackTimer != nil || st.retryTimer != nil {
		return
	}
	st.nackTimer = p.after(p.cfg.NackDelay, func() {
		st.nackTimer = nil
		st.retries = 0
		p.fetchFromSource(st, hi)
	})
}

// fetchFromSource NACKs the source for the primary's own missing packets;
// the source serves them from its retention buffer (it may not discard
// until the primary acknowledges, §2.2).
func (p *Primary) fetchFromSource(st *priStream, hi uint64) {
	if hi < st.store.Highest() {
		hi = st.store.Highest()
	}
	ranges := st.store.Missing(hi, wire.MaxNackRanges)
	// A hole under an active backfill floor belongs to the peer replicas,
	// not the source: the source has released everything at or below the
	// floor and can never serve it.
	if bf := p.backfill; bf != nil && bf.st == st {
		trimmed := ranges[:0]
		for _, r := range ranges {
			if r.To <= bf.floor {
				continue
			}
			if r.From <= bf.floor {
				r.From = bf.floor + 1
			}
			trimmed = append(trimmed, r)
		}
		ranges = trimmed
	}
	// Include packets requested by clients that we never saw at all
	// (beyond hi).
	for seq := range st.pendingReq {
		if !st.store.Seen(seq) && seq > hi {
			ranges = append(ranges, wire.SeqRange{From: seq, To: seq})
		}
	}
	if len(ranges) == 0 || st.source == nil {
		st.retries = 0
		return
	}
	if len(ranges) > wire.MaxNackRanges {
		ranges = ranges[:wire.MaxNackRanges]
	}
	if st.retries >= p.cfg.MaxRetries {
		st.retries = 0
		return
	}
	st.retries++
	nack := wire.Packet{
		Type: wire.TypeNack, Source: st.key.Source, Group: st.key.Group,
		Ranges: ranges,
	}
	p.send(st.source, &nack)
	p.stats.NacksToSource++
	p.mx.nacksToSource.Inc()
	// Jittered exponential backoff (see Secondary.fetchMissing): the primary
	// must not hammer a source that is down or partitioned at a fixed period.
	retry := transport.Backoff{Base: p.cfg.RequestTimeout}.Interval(st.retries-1, p.env.Rand())
	st.retryTimer = p.after(retry, func() {
		st.retryTimer = nil
		p.fetchFromSource(st, 0)
	})
}

func (p *Primary) send(to transport.Addr, pkt *wire.Packet) {
	buf, err := pkt.AppendMarshal(p.scratch[:0])
	if err != nil {
		return
	}
	p.scratch = buf
	p.mx.tx.Record(int(wire.ClassOf(pkt.Type)), len(buf))
	_ = p.env.Send(to, buf)
}
