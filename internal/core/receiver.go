package core

import (
	"slices"
	"time"

	"lbrm/internal/heartbeat"
	"lbrm/internal/obs"
	"lbrm/internal/seqtrack"
	"lbrm/internal/transport"
	"lbrm/internal/vtime"
	"lbrm/internal/wire"
)

// Event is one delivered application packet.
type Event struct {
	Stream  StreamKey
	Seq     uint64
	Payload []byte
	// Retransmitted marks packets recovered rather than received on the
	// first transmission.
	Retransmitted bool
}

// StreamKey identifies one source's stream within a group.
type StreamKey struct {
	Source wire.SourceID
	Group  wire.GroupID
}

// ReceiverConfig configures an LBRM receiver.
type ReceiverConfig struct {
	// Group is the multicast group to subscribe to.
	Group wire.GroupID
	// Heartbeat mirrors the senders' heartbeat parameters so the receiver
	// can compute when the next packet is due (freshness tracking).
	Heartbeat heartbeat.Params
	// Secondary is the local logging server to request retransmissions
	// from. Nil with Discover set finds one by scoped multicast (§2.2.1);
	// nil without Discover goes straight to Primary.
	Secondary transport.Addr
	// Loggers is the upward recovery chain of logger tiers for an N-level
	// logger tree: Loggers[0] is the site secondary (tier 0), Loggers[1]
	// the regional logger (tier 1), and so on; Primary remains the final
	// pre-query escalation target one tier above the last entry. A miss
	// escalates tier by tier, spending SecondaryRetries jittered-backoff
	// requests at each, instead of jumping straight to the primary. Empty
	// keeps the flat design: Secondary (or a discovered logger), then
	// Primary. When set, it overrides Secondary as the first recovery
	// target.
	Loggers []transport.Addr
	// Primary is the primary logging server (escalation target).
	Primary transport.Addr
	// Discover enables expanding-ring logger discovery.
	Discover bool
	// DiscoveryTimeout bounds each discovery ring before widening.
	DiscoveryTimeout time.Duration
	// NackDelay is the reorder allowance before a retransmission request
	// ("a short retransmission request timer", Appendix A).
	NackDelay time.Duration
	// RequestTimeout is the per-request retry interval.
	RequestTimeout time.Duration
	// SecondaryRetries is how many requests go to the secondary before
	// escalating to the primary ("if the secondary logging service fails,
	// a receiver requests retransmissions directly from the primary").
	SecondaryRetries int
	// PrimaryRetries is how many requests go to the primary before asking
	// the source who the primary is (failover, §2.2.3).
	PrimaryRetries int
	// StaleFactor and StaleSlack control freshness: a stream is stale when
	// nothing arrives for StaleFactor × the expected inter-packet interval
	// plus StaleSlack.
	StaleFactor float64
	StaleSlack  time.Duration
	// Ordered buffers out-of-order packets and delivers in sequence
	// (message ordering is an application-level concern in LBRM; this is a
	// convenience for applications that want it).
	Ordered bool
	// RetransChannel (§7 extension): on loss, subscribe to the sender's
	// retransmission channel and wait RetransWait for a replay before
	// falling back to NACK recovery. 0 disables.
	RetransChannel wire.GroupID
	// RetransWait bounds the subscription before NACK fallback (default
	// 3×Heartbeat.HMin, covering the first two replays).
	RetransWait time.Duration
	// OrderedBufferMax caps the out-of-order buffer in Ordered mode
	// (default 1024 packets per stream). On overflow the oldest gap is
	// force-abandoned so delivery can proceed — bounded memory beats
	// unbounded waiting for a packet that may never come.
	OrderedBufferMax int
	// RecoveryWindow caps how many sequence numbers behind the stream head
	// the receiver will chase (default 4096). Falling further behind — or
	// receiving a forged sequence number — skips the stream ahead,
	// reporting the skipped span through OnLost. Freshness over
	// completeness, and a bound on per-packet work and state.
	RecoveryWindow uint64

	// TrackRecoveryTimes retains the detection→delivery latency of every
	// recovered sequence number for the RecoveryTimes accessor (testbeds
	// and experiments). Off by default: the record grows with recovery
	// count, so production datapaths leave it disabled and read the
	// recovery-latency histogram from Obs instead.
	TrackRecoveryTimes bool

	// OnData is called for every delivered packet (required to observe
	// data). The payload is only valid during the call.
	OnData func(Event)
	// OnStale is called once when a stream goes stale; the duration is the
	// observed silence.
	OnStale func(StreamKey, time.Duration)
	// OnFresh is called when a stale stream resumes.
	OnFresh func(StreamKey)
	// OnLost is called when recovery of a range is abandoned.
	OnLost func(StreamKey, wire.SeqRange)

	// Obs receives metrics and trace events (nil = uninstrumented; the
	// delivery path stays zero-allocation either way, see DESIGN.md §9).
	Obs *obs.Sink
}

func (c ReceiverConfig) withDefaults() ReceiverConfig {
	if c.Heartbeat == (heartbeat.Params{}) {
		c.Heartbeat = heartbeat.DefaultParams
	}
	if c.DiscoveryTimeout == 0 {
		c.DiscoveryTimeout = 200 * time.Millisecond
	}
	if c.NackDelay == 0 {
		c.NackDelay = 10 * time.Millisecond
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 250 * time.Millisecond
	}
	if c.SecondaryRetries == 0 {
		c.SecondaryRetries = 3
	}
	if c.PrimaryRetries == 0 {
		c.PrimaryRetries = 3
	}
	if c.StaleFactor == 0 {
		c.StaleFactor = 2
	}
	if c.StaleSlack == 0 {
		c.StaleSlack = 100 * time.Millisecond
	}
	if c.RetransChannel != 0 && c.RetransWait == 0 {
		c.RetransWait = 3 * c.Heartbeat.HMin
	}
	if c.Ordered && c.OrderedBufferMax == 0 {
		c.OrderedBufferMax = 1024
	}
	if c.RecoveryWindow == 0 {
		c.RecoveryWindow = 4096
	}
	return c
}

// ReceiverStats counts a receiver's protocol activity.
type ReceiverStats struct {
	DataDelivered  uint64
	Duplicates     uint64
	HeartbeatsSeen uint64
	GapsDetected   uint64
	NacksSent      uint64
	// NacksToSecondary counts NACKs to the tier-0 (on-site) logger;
	// NacksToPrimary counts everything sent beyond the site boundary —
	// higher chain tiers, the primary, and post-query retries.
	NacksToSecondary   uint64
	NacksToPrimary     uint64
	Recovered          uint64
	RecoveredInline    uint64
	Escalations        uint64
	PrimaryQueries     uint64
	RangesAbandoned    uint64
	StaleEpisodes      uint64
	DiscoveryQueries   uint64
	DiscoveredLogger   uint64
	Malformed          uint64
	OrderedBuffered    uint64
	OrderedOutOfWindow uint64
	ChannelJoins       uint64 // retransmission-channel subscriptions (§7)
	ChannelRecoveries  uint64 // losses healed by channel replays
	SkippedAhead       uint64 // recovery-window skips (fell too far behind)
	StaleRedirects     uint64 // redirects fenced by the primary epoch
	ReparentsFollowed  uint64 // logger-tree announcements adopted
	StaleReparents     uint64 // logger-tree announcements fenced as stale
}

// Recovery escalation phases. A stream's phase is its position in the
// recovery chain: phases [0, numTiers) address the logger tiers
// (cfg.Loggers, or the single flat secondary), numTiers the primary, and
// numTiers+1 the post-query primary retry. With the default flat chain
// these reduce to the paper's 0 secondary / 1 primary / 2 queried.
const phaseSecondary = 0

// Receiver is an LBRM receiver endpoint.
type Receiver struct {
	cfg       ReceiverConfig
	env       transport.Env
	secondary transport.Addr
	// chain is the logger-tier recovery chain (cfg.Loggers); empty means
	// the flat single-secondary design. tierEpochs fences TypeReparent
	// announcements per announcer tier, priEpochHigh by primary epoch.
	chain        []transport.Addr
	tierEpochs   [wire.MaxTier + 1]uint32
	priEpochHigh uint32
	streams      map[StreamKey]*rcvStream
	stats        ReceiverStats

	discovering  bool
	discoveryTTL int

	// §7 retransmission-channel subscription state (receiver-wide).
	channelJoined bool
	channelTimer  vtime.Timer

	// last is a one-entry stream cache: simulation traffic is dominated by
	// long runs of packets from the same stream, so most lookups skip the
	// map. Invalidated implicitly (the cached pointer stays valid until the
	// stream is deleted, which this receiver never does).
	last *rcvStream
	// scratch is the reusable wire-encoding buffer (bindings copy).
	scratch []byte
	// missScratch/trackScratch back missing()'s working slices between
	// calls (the result is dead once the NACK is marshalled or the gap
	// check decides), so steady-state recovery computes gaps without
	// allocating.
	missScratch  []wire.SeqRange
	trackScratch []wire.SeqRange

	stopped bool
	// mx caches the preregistered metric handles (all nil-safe).
	mx receiverMetrics
}

// receiverMetrics holds the receiver's preregistered observability handles.
type receiverMetrics struct {
	sink             *obs.Sink
	tx               *obs.ClassCounters
	delivered        *obs.Counter
	duplicates       *obs.Counter
	heartbeats       *obs.Counter
	gaps             *obs.Counter
	recovered        *obs.Counter
	recoveredInline  *obs.Counter
	nacks            *obs.Counter
	nacksToSecondary *obs.Counter
	nacksToPrimary   *obs.Counter
	escalations      *obs.Counter
	primaryQueries   *obs.Counter
	abandoned        *obs.Counter
	staleEpisodes    *obs.Counter
	discoveries      *obs.Counter
	skippedAhead     *obs.Counter
	staleRedirects   *obs.Counter
	reparents        *obs.Counter
	staleReparents   *obs.Counter
	primaryEpoch     *obs.Gauge
	recoveryMS       *obs.Histogram
	// pathRTT breaks recoveryMS down by recovery path (indexed by
	// wire.RecoveryPath; PathNone stays nil).
	pathRTT [wire.NumRecoveryPaths]*obs.Histogram
}

// recoveryBoundsMS buckets loss-detection→delivery latency: the paper's
// Figure 6 recovery-delay axis as a histogram.
var recoveryBoundsMS = []uint64{1, 5, 10, 25, 50, 100, 250, 500, 1000, 2500}

func newReceiverMetrics(sink *obs.Sink) receiverMetrics {
	mx := receiverMetrics{
		sink:             sink,
		tx:               sink.Classes("recv.tx", wire.TrafficClassNames()),
		delivered:        sink.Counter("recv.delivered"),
		duplicates:       sink.Counter("recv.duplicates"),
		heartbeats:       sink.Counter("recv.heartbeats_seen"),
		gaps:             sink.Counter("recv.gaps_detected"),
		recovered:        sink.Counter("recv.recovered"),
		recoveredInline:  sink.Counter("recv.recovered_inline"),
		nacks:            sink.Counter("recv.nacks_sent"),
		nacksToSecondary: sink.Counter("recv.nacks_to_secondary"),
		nacksToPrimary:   sink.Counter("recv.nacks_to_primary"),
		escalations:      sink.Counter("recv.escalations"),
		primaryQueries:   sink.Counter("recv.primary_queries"),
		abandoned:        sink.Counter("recv.ranges_abandoned"),
		staleEpisodes:    sink.Counter("recv.stale_episodes"),
		discoveries:      sink.Counter("recv.discovery_queries"),
		skippedAhead:     sink.Counter("recv.skipped_ahead"),
		staleRedirects:   sink.Counter("recv.fence.stale_redirects"),
		reparents:        sink.Counter("recv.reparents"),
		staleReparents:   sink.Counter("recv.fence.stale_reparents"),
		primaryEpoch:     sink.Gauge("recv.primary_epoch"),
		recoveryMS:       sink.Histogram("recv.recovery_ms", recoveryBoundsMS),
	}
	for p := wire.PathLocal; p < wire.NumRecoveryPaths; p++ {
		mx.pathRTT[p] = sink.Histogram("recv.recovery."+p.MetricName()+"_ms", recoveryBoundsMS)
	}
	return mx
}

// now returns the environment clock in nanoseconds (0 before Start).
func (r *Receiver) now() int64 {
	if r.env == nil {
		return 0
	}
	return r.env.Now().UnixNano()
}

type rcvStream struct {
	key    StreamKey
	source transport.Addr
	// sequence tracking (no payload retention).
	track  seqtrack.Tracker
	hbHigh uint64
	// ordered-mode buffer.
	buffer map[uint64][]byte
	// recovery.
	primary transport.Addr
	// primaryEpoch is the highest primary epoch observed for this stream
	// (heartbeats and redirects carry it). Redirects naming a lower epoch
	// are from a fenced, stale primary and are ignored.
	primaryEpoch uint32
	// nackTimer/retryTimer are persistent: created once per stream on the
	// first recovery episode and re-armed with Reset afterwards, with the
	// armed flags carrying the "is a fire pending" state (a timer handle
	// outliving its episode must not be mistaken for an active one). This
	// keeps per-episode recovery free of timer and closure allocations.
	nackTimer  vtime.Timer
	nackArmed  bool
	retryTimer vtime.Timer
	retryArmed bool

	phase       int
	retries     int
	gaveUpBelow uint64
	// freshness.
	lastArrival time.Time
	staleTimer  vtime.Timer
	stale       bool
	// latency accounting for experiments: seq → time the loss was first
	// detectable (gap observed).
	gapSince map[uint64]time.Time
	// detectedThrough is the gap-detection watermark: every seq at or
	// below it that is still missing is already in gapSince. The missing
	// set never grows below the stream head, so checkGaps registers only
	// seqs above it and each missing seq is visited once.
	detectedThrough uint64
	// recoveryTimes records detection→delivery per recovered seq.
	recoveryTimes map[uint64]time.Duration
}

// NewReceiver returns a receiver for cfg.
func NewReceiver(cfg ReceiverConfig) *Receiver {
	r := &Receiver{
		cfg:       cfg.withDefaults(),
		secondary: cfg.Secondary,
		chain:     cfg.Loggers,
		streams:   make(map[StreamKey]*rcvStream),
		mx:        newReceiverMetrics(cfg.Obs),
	}
	if len(r.chain) > 0 {
		r.secondary = r.chain[0]
	}
	return r
}

// numTiers is the number of logger tiers below the primary in the
// recovery chain (1 in the flat design: the single secondary).
func (r *Receiver) numTiers() int {
	if len(r.chain) > 0 {
		return len(r.chain)
	}
	return 1
}

// phasePrimary/phaseQueried are the chain positions of the primary and of
// the post-query primary retry (1 and 2 in the flat design).
func (r *Receiver) phasePrimary() int { return r.numTiers() }
func (r *Receiver) phaseQueried() int { return r.numTiers() + 1 }

// Stats returns a snapshot of the receiver's counters.
func (r *Receiver) Stats() ReceiverStats { return r.stats }

// Stop halts the receiver: recovery, freshness and discovery timers cease
// and incoming packets are ignored. Safe to call once.
func (r *Receiver) Stop() {
	r.stopped = true
	for _, st := range r.streams {
		if st.staleTimer != nil {
			st.staleTimer.Stop()
		}
		if st.nackTimer != nil {
			st.nackTimer.Stop()
		}
		if st.retryTimer != nil {
			st.retryTimer.Stop()
		}
	}
}

// after schedules fn guarded by the stopped flag.
func (r *Receiver) after(d time.Duration, fn func()) vtime.Timer {
	return r.env.AfterFunc(d, func() {
		if !r.stopped {
			fn()
		}
	})
}

// SecondaryAddr returns the logging server currently used for recovery
// (nil when none is known yet).
func (r *Receiver) SecondaryAddr() transport.Addr { return r.secondary }

// Contiguous returns the stream's in-order watermark (for tests).
func (r *Receiver) Contiguous(key StreamKey) uint64 {
	if st := r.streams[key]; st != nil {
		return st.track.Contiguous()
	}
	return 0
}

// PrimaryTarget returns the stream's current recovery primary and the
// highest primary epoch observed for it (for tests).
func (r *Receiver) PrimaryTarget(key StreamKey) (transport.Addr, uint32) {
	if st := r.streams[key]; st != nil {
		return st.primary, st.primaryEpoch
	}
	return nil, 0
}

// Stale reports whether the stream is currently considered stale.
func (r *Receiver) Stale(key StreamKey) bool {
	if st := r.streams[key]; st != nil {
		return st.stale
	}
	return false
}

// Start implements transport.Handler.
func (r *Receiver) Start(env transport.Env) {
	r.env = env
	if err := env.Join(r.cfg.Group); err != nil {
		panic("core: receiver failed to join group: " + err.Error())
	}
	if r.secondary == nil && r.cfg.Discover {
		r.discoverLogger(transport.TTLSite)
	}
}

// Recv implements transport.Handler.
func (r *Receiver) Recv(from transport.Addr, data []byte) {
	if r.stopped {
		return
	}
	var p wire.Packet
	if err := p.Unmarshal(data); err != nil {
		r.stats.Malformed++
		return
	}
	if p.Group != r.cfg.Group {
		return
	}
	switch p.Type {
	case wire.TypeData, wire.TypeRetrans:
		r.onData(from, &p)
	case wire.TypeHeartbeat:
		r.onHeartbeat(from, &p)
	case wire.TypeDiscoveryReply:
		r.onDiscoveryReply(&p)
	case wire.TypePrimaryRedirect:
		r.onRedirect(&p)
	case wire.TypeReparent:
		r.onReparent(&p)
	}
}

func (r *Receiver) stream(key StreamKey) *rcvStream {
	if st := r.last; st != nil && st.key == key {
		return st
	}
	st := r.streams[key]
	if st == nil {
		st = &rcvStream{
			key:      key,
			primary:  r.cfg.Primary,
			gapSince: make(map[uint64]time.Time),
		}
		if r.cfg.TrackRecoveryTimes {
			st.recoveryTimes = make(map[uint64]time.Duration)
		}
		if r.cfg.Ordered {
			st.buffer = make(map[uint64][]byte)
		}
		r.streams[key] = st
	}
	r.last = st
	return st
}

// --- sequence bookkeeping (shared tracker plus recovery filtering) ---

// missing returns the outstanding ranges: tracker gaps up to the highest
// seen (data or heartbeat-implied), minus anything already abandoned. The
// result is backed by the Receiver's scratch storage and is valid only
// until the next missing call.
func (r *Receiver) missing(st *rcvStream, cap int) []wire.SeqRange {
	hi := st.track.Highest()
	if st.hbHigh > hi {
		hi = st.hbHigh
	}
	r.trackScratch = st.track.AppendMissing(r.trackScratch[:0], hi, cap)
	out := r.missScratch[:0]
	for _, rg := range r.trackScratch {
		if rg.To <= st.gaveUpBelow {
			continue
		}
		if rg.From <= st.gaveUpBelow {
			rg.From = st.gaveUpBelow + 1
		}
		out = append(out, rg)
		if len(out) == cap {
			break
		}
	}
	r.missScratch = out
	return out
}

// --- data path ---

func (r *Receiver) onData(from transport.Addr, p *wire.Packet) {
	st := r.stream(StreamKey{Source: p.Source, Group: p.Group})
	if p.Type == wire.TypeData && p.Flags&wire.FlagFromLogger == 0 {
		st.source = from
	}
	r.touch(st, p)
	// Late join: deliver from here on; history is not fetched.
	if !st.track.Contacted() && p.Seq > 0 {
		st.track.SetBase(p.Seq - 1)
	}
	r.ingest(st, p.Seq, p.Payload, wire.ClassifyRecovery(p.Type, p.Flags))
}

// ingest marks a sequence number as received and delivers its payload.
// path is the repair's recovery path (PathNone for an original
// transmission).
func (r *Receiver) ingest(st *rcvStream, seq uint64, payload []byte, path wire.RecoveryPath) {
	if !st.track.Mark(seq) {
		r.stats.Duplicates++
		r.mx.duplicates.Inc()
		return
	}
	retrans := path != wire.PathNone
	if retrans {
		r.stats.Recovered++
		r.mx.recovered.Inc()
		if r.channelJoined {
			r.stats.ChannelRecoveries++
		}
		// lat stays 0 for a proactive repair that beat detection (site
		// remulticast for a neighbour's NACK, inline heartbeat racing the
		// gap check); the flight recorder distinguishes the two cases by it.
		var lat uint64
		if at, ok := st.gapSince[seq]; ok {
			d := r.env.Now().Sub(at)
			if st.recoveryTimes != nil {
				st.recoveryTimes[seq] = d
			}
			r.mx.recoveryMS.Observe(uint64(d / time.Millisecond))
			r.mx.pathRTT[path].Observe(uint64(d / time.Millisecond))
			lat = uint64(d)
			delete(st.gapSince, seq)
		}
		r.mx.sink.EmitFlight(r.now(), obs.KindDeliver, seq, uint64(path), lat)
	}
	if r.cfg.Ordered {
		r.deliverOrdered(st, seq, payload, retrans)
	} else {
		r.deliver(st, seq, payload, retrans)
	}
	r.checkGaps(st)
}

func (r *Receiver) deliver(st *rcvStream, seq uint64, payload []byte, retrans bool) {
	r.stats.DataDelivered++
	r.mx.delivered.Inc()
	if r.cfg.OnData != nil {
		r.cfg.OnData(Event{Stream: st.key, Seq: seq, Payload: payload, Retransmitted: retrans})
	}
}

// deliverOrdered buffers out-of-order arrivals and flushes in sequence.
func (r *Receiver) deliverOrdered(st *rcvStream, seq uint64, payload []byte, retrans bool) {
	st.buffer[seq] = append([]byte(nil), payload...)
	r.stats.OrderedBuffered++
	// Everything up to the contiguity watermark is in order; flush what
	// the buffer covers. Note Mark already advanced it through seq when
	// possible.
	flushUpTo := st.track.Contiguous()
	var ready []uint64
	for q := range st.buffer {
		if q <= flushUpTo {
			ready = append(ready, q)
		}
	}
	slices.Sort(ready)
	for _, q := range ready {
		r.deliver(st, q, st.buffer[q], retrans && q == seq)
		delete(st.buffer, q)
	}
	// Bounded memory: on overflow, force-abandon the oldest outstanding
	// gap so the stream can flush past it.
	if len(st.buffer) > r.cfg.OrderedBufferMax {
		if miss := r.missing(st, 1); len(miss) > 0 {
			r.abandon(st, miss[:1])
		}
	}
}

func (r *Receiver) onHeartbeat(from transport.Addr, p *wire.Packet) {
	st := r.stream(StreamKey{Source: p.Source, Group: p.Group})
	st.source = from
	r.stats.HeartbeatsSeen++
	r.mx.heartbeats.Inc()
	if p.PrimaryEpoch > st.primaryEpoch {
		r.mx.sink.Emit(r.now(), obs.KindEpochBump, uint64(st.primaryEpoch), uint64(p.PrimaryEpoch), 0)
		st.primaryEpoch = p.PrimaryEpoch
		r.mx.primaryEpoch.Set(int64(p.PrimaryEpoch))
	}
	if p.PrimaryEpoch > r.priEpochHigh {
		r.priEpochHigh = p.PrimaryEpoch
	}
	r.touch(st, p)
	// First contact via heartbeat: adopt the current position (no-op once
	// contacted).
	st.track.SetBase(p.Seq)
	if p.Seq > st.hbHigh {
		st.hbHigh = p.Seq
	}
	if p.Flags&wire.FlagInlineData != 0 && p.Seq > 0 && !st.track.Seen(p.Seq) {
		r.stats.RecoveredInline++
		r.mx.recoveredInline.Inc()
		r.ingest(st, p.Seq, p.Payload, wire.ClassifyRecovery(p.Type, p.Flags))
		return
	}
	r.checkGaps(st)
}

// --- loss recovery ---

// clampWindow enforces RecoveryWindow: when the stream head is more than
// a window ahead of the contiguity watermark, skip forward and report the
// abandoned span.
func (r *Receiver) clampWindow(st *rcvStream) {
	hi := st.track.Highest()
	if st.hbHigh > hi {
		hi = st.hbHigh
	}
	contig := st.track.Contiguous()
	if hi <= contig+r.cfg.RecoveryWindow {
		return
	}
	skipTo := hi - r.cfg.RecoveryWindow
	st.track.Advance(skipTo)
	if skipTo > st.gaveUpBelow {
		st.gaveUpBelow = skipTo
	}
	nowNS := r.now()
	for seq := range st.gapSince {
		if seq <= skipTo {
			r.mx.sink.EmitFlight(nowNS, obs.KindAbandon, seq, 1, 0)
			delete(st.gapSince, seq)
		}
	}
	if r.cfg.Ordered {
		for q := range st.buffer {
			if q <= skipTo {
				delete(st.buffer, q)
			}
		}
	}
	r.stats.SkippedAhead++
	r.mx.skippedAhead.Inc()
	r.mx.sink.Emit(r.now(), obs.KindSkipAhead, contig, skipTo, 0)
	if r.cfg.OnLost != nil {
		r.cfg.OnLost(st.key, wire.SeqRange{From: contig + 1, To: skipTo})
	}
}

func (r *Receiver) checkGaps(st *rcvStream) {
	r.clampWindow(st)
	miss := r.missing(st, wire.MaxNackRanges)
	if len(miss) == 0 {
		r.maybeLeaveChannel()
		return
	}
	now := r.env.Now()
	nowNS := now.UnixNano()
	for _, rg := range miss {
		if rg.To <= st.detectedThrough {
			continue
		}
		for seq := max(rg.From, st.detectedThrough+1); ; seq++ {
			st.gapSince[seq] = now
			r.stats.GapsDetected++
			r.mx.gaps.Inc()
			// The gap is heartbeat-revealed when nothing above it has
			// arrived as data (the heartbeat's seq pushed hbHigh past
			// the highest received packet).
			var hb uint64
			if seq > st.track.Highest() {
				hb = 1
			}
			r.mx.sink.EmitFlight(nowNS, obs.KindGapDetect, seq, hb, 0)
			if seq == rg.To {
				break
			}
		}
	}
	// miss lists every missing seq up to its last range (the cap only
	// drops ranges above it), so detection is complete through there.
	st.detectedThrough = max(st.detectedThrough, miss[len(miss)-1].To)
	if st.nackArmed || st.retryArmed {
		return
	}
	// §7 extension: try the retransmission channel first; NACK recovery
	// starts only if the replays don't heal us within RetransWait.
	delay := r.cfg.NackDelay
	if r.cfg.RetransChannel != 0 {
		r.joinChannel()
		delay += r.cfg.RetransWait
	}
	r.armNack(st, delay)
}

// armNack schedules the start of a recovery episode. The underlying timer
// is created once per stream and re-armed thereafter (see rcvStream).
func (r *Receiver) armNack(st *rcvStream, d time.Duration) {
	st.nackArmed = true
	if st.nackTimer == nil {
		st.nackTimer = r.after(d, func() { r.nackFire(st) })
		return
	}
	st.nackTimer.Reset(d)
}

func (r *Receiver) nackFire(st *rcvStream) {
	if !st.nackArmed {
		return
	}
	st.nackArmed = false
	st.phase = phaseSecondary
	st.retries = 0
	r.requestRetransmission(st)
}

// armRetry schedules the next NACK retry; like armNack it reuses the
// stream's persistent timer. The fire path re-checks phase exhaustion, so
// one callback serves every escalation phase.
func (r *Receiver) armRetry(st *rcvStream, d time.Duration) {
	st.retryArmed = true
	if st.retryTimer == nil {
		st.retryTimer = r.after(d, func() { r.retryFire(st) })
		return
	}
	st.retryTimer.Reset(d)
}

func (r *Receiver) retryFire(st *rcvStream) {
	if !st.retryArmed {
		return
	}
	st.retryArmed = false
	if r.phaseExhausted(st) {
		r.escalate(st, nil)
		return
	}
	r.requestRetransmission(st)
}

// joinChannel subscribes to the sender's retransmission channel.
func (r *Receiver) joinChannel() {
	if r.channelJoined {
		return
	}
	if err := r.env.Join(r.cfg.RetransChannel); err != nil {
		return
	}
	r.channelJoined = true
	r.stats.ChannelJoins++
}

// maybeLeaveChannel unsubscribes once no stream is missing anything.
func (r *Receiver) maybeLeaveChannel() {
	if !r.channelJoined {
		return
	}
	for _, st := range r.streams {
		if len(r.missing(st, 1)) > 0 {
			return
		}
	}
	_ = r.env.Leave(r.cfg.RetransChannel)
	r.channelJoined = false
}

// RecoveryTimes returns, per recovered sequence number, the delay from
// loss detection to delivery (for experiments).
func (r *Receiver) RecoveryTimes(key StreamKey) map[uint64]time.Duration {
	st := r.streams[key]
	if st == nil {
		return nil
	}
	out := make(map[uint64]time.Duration, len(st.recoveryTimes))
	for k, v := range st.recoveryTimes {
		out[k] = v
	}
	return out
}

// GapAges returns, for experiments, how long each currently-missing
// sequence number has been outstanding.
func (r *Receiver) GapAges(key StreamKey) map[uint64]time.Duration {
	st := r.streams[key]
	if st == nil {
		return nil
	}
	out := make(map[uint64]time.Duration, len(st.gapSince))
	now := r.env.Now()
	for seq, t := range st.gapSince {
		out[seq] = now.Sub(t)
	}
	return out
}

// requestRetransmission sends one NACK for everything missing, to the
// current recovery target, escalating through the logging hierarchy.
func (r *Receiver) requestRetransmission(st *rcvStream) {
	miss := r.missing(st, wire.MaxNackRanges)
	if len(miss) == 0 {
		st.retries = 0
		st.phase = phaseSecondary
		return
	}
	target := r.target(st)
	if target == nil {
		r.escalate(st, miss)
		return
	}
	nack := wire.Packet{
		Type: wire.TypeNack, Source: st.key.Source, Group: st.key.Group,
		Ranges: miss,
	}
	// Stamp the addressee's global tier (the chain position; the primary's
	// tier also covers the post-query retry) so taps and parents can see
	// escalation never skips a live tier.
	if tier := min(st.phase, r.phasePrimary()); tier > 0 {
		nack.SetTier(tier)
	}
	buf, err := nack.AppendMarshal(r.scratch[:0])
	if err != nil {
		return
	}
	r.scratch = buf
	r.mx.tx.Record(int(wire.ClassNack), len(buf))
	_ = r.env.Send(target, buf)
	r.stats.NacksSent++
	r.mx.nacks.Inc()
	if r.mx.sink != nil {
		nowNS := r.now()
		for _, rg := range miss {
			for seq := rg.From; seq <= rg.To; seq++ {
				r.mx.sink.EmitFlight(nowNS, obs.KindNackSend, seq, uint64(st.phase), uint64(st.retries))
			}
		}
	}
	// NacksToSecondary counts tier-0 (on-site) requests; everything higher
	// crosses the site boundary and lands in NacksToPrimary, preserving the
	// §2.2.2 tail-circuit NACK-budget identity in multi-tier chains.
	if st.phase == 0 {
		r.stats.NacksToSecondary++
		r.mx.nacksToSecondary.Inc()
	} else {
		r.stats.NacksToPrimary++
		r.mx.nacksToPrimary.Inc()
	}
	st.retries++
	// Jittered exponential backoff: a site full of receivers that lost the
	// same packets must not re-fire NACKs in lockstep forever (retry storm
	// after a healed partition), and a struggling logger sees geometrically
	// decreasing pressure.
	retry := transport.Backoff{Base: r.cfg.RequestTimeout}.Interval(st.retries-1, r.env.Rand())
	r.armRetry(st, retry)
}

// target returns the recovery peer for the stream's current phase: the
// logger chain tier by tier, then the primary.
func (r *Receiver) target(st *rcvStream) transport.Addr {
	if st.phase < r.numTiers() {
		if len(r.chain) > 0 {
			return r.chain[st.phase]
		}
		return r.secondary // may be nil: escalate straight past tier 0
	}
	return st.primary
}

func (r *Receiver) phaseExhausted(st *rcvStream) bool {
	if st.phase < r.numTiers() {
		return st.retries >= r.cfg.SecondaryRetries
	}
	return st.retries >= r.cfg.PrimaryRetries
}

// escalate moves the recovery episode up the hierarchy: each logger tier
// in turn → primary → ask the source for the current primary → abandon.
func (r *Receiver) escalate(st *rcvStream, miss []wire.SeqRange) {
	switch {
	case st.phase < r.numTiers():
		st.phase++
		st.retries = 0
		r.stats.Escalations++
		r.mx.escalations.Inc()
		r.requestRetransmission(st)
	case st.phase == r.phasePrimary():
		st.phase = r.phaseQueried()
		st.retries = 0
		if st.source != nil {
			q := wire.Packet{
				Type: wire.TypePrimaryQuery, Source: st.key.Source, Group: st.key.Group,
			}
			if buf, err := q.AppendMarshal(r.scratch[:0]); err == nil {
				r.scratch = buf
				r.mx.tx.Record(int(wire.ClassControl), len(buf))
				_ = r.env.Send(st.source, buf)
				r.stats.PrimaryQueries++
				r.mx.primaryQueries.Inc()
			}
			// Give the redirect a round trip before retrying the primary.
			// The shared retryFire path applies: phase is phaseQueried with
			// zero retries, so exhaustion cannot trigger before the retry.
			r.armRetry(st, r.cfg.RequestTimeout)
			return
		}
		r.requestRetransmission(st)
	default:
		if miss == nil {
			miss = r.missing(st, wire.MaxNackRanges)
		}
		r.abandon(st, miss)
	}
}

// abandon gives up on the listed ranges: freshness over completeness. The
// abandoned sequence numbers are marked resolved so the in-order watermark
// advances past the hole.
func (r *Receiver) abandon(st *rcvStream, miss []wire.SeqRange) {
	nowNS := r.now()
	for _, rg := range miss {
		if rg.To > st.gaveUpBelow {
			st.gaveUpBelow = rg.To
		}
		for seq := rg.From; seq <= rg.To; seq++ {
			// The abandon terminal is emitted only for seqs whose loss was
			// detected (in gapSince): one terminal per detected chain.
			if _, ok := st.gapSince[seq]; ok {
				r.mx.sink.EmitFlight(nowNS, obs.KindAbandon, seq, 0, 0)
				delete(st.gapSince, seq)
			}
			st.track.Mark(seq)
		}
		r.stats.RangesAbandoned++
		r.mx.abandoned.Inc()
		if r.cfg.OnLost != nil {
			r.cfg.OnLost(st.key, rg)
		}
	}
	st.phase = phaseSecondary
	st.retries = 0
	if r.cfg.Ordered {
		// Flush buffered packets stranded behind the abandoned range, in
		// order.
		var ready []uint64
		for q := range st.buffer {
			if q <= st.track.Contiguous() {
				ready = append(ready, q)
			}
		}
		slices.Sort(ready)
		for _, q := range ready {
			r.deliver(st, q, st.buffer[q], false)
			delete(st.buffer, q)
		}
	}
	// More gaps may remain beyond the abandoned ones.
	r.checkGaps(st)
}

// --- freshness ---

// touch resets the stream's staleness deadline from the packet just
// received: the next packet is due within the heartbeat schedule's next
// interval.
func (r *Receiver) touch(st *rcvStream, p *wire.Packet) {
	now := r.env.Now()
	st.lastArrival = now
	if st.stale {
		st.stale = false
		if r.cfg.OnFresh != nil {
			r.cfg.OnFresh(st.key)
		}
	}
	interval := r.expectedNext(p)
	wait := time.Duration(float64(interval)*r.cfg.StaleFactor) + r.cfg.StaleSlack
	// One timer per stream, Reset per packet: this path runs for every
	// delivered data packet, so it must not allocate a fresh timer+closure.
	if st.staleTimer != nil {
		st.staleTimer.Reset(wait)
		return
	}
	st.staleTimer = r.after(wait, func() {
		st.stale = true
		r.stats.StaleEpisodes++
		r.mx.staleEpisodes.Inc()
		if r.cfg.OnStale != nil {
			r.cfg.OnStale(st.key, r.env.Now().Sub(st.lastArrival))
		}
	})
}

// expectedNext returns the maximum time until the sender's next
// transmission, per the variable heartbeat schedule: after a data packet
// the next heartbeat comes within HMin; after the i-th heartbeat, within
// HMin·backoff^i (capped at HMax).
func (r *Receiver) expectedNext(p *wire.Packet) time.Duration {
	hb := r.cfg.Heartbeat
	if p.Type != wire.TypeHeartbeat {
		return hb.HMin
	}
	iv := hb.HMin
	for i := uint32(0); i < p.HeartbeatIdx; i++ {
		iv = time.Duration(float64(iv) * hb.Backoff)
		if iv >= hb.HMax || iv <= 0 {
			return hb.HMax
		}
	}
	if iv > hb.HMax {
		iv = hb.HMax
	}
	return iv
}

// --- logger discovery (§2.2.1) ---

func (r *Receiver) discoverLogger(ttl int) {
	if r.secondary != nil {
		return
	}
	r.discovering = true
	r.discoveryTTL = ttl
	q := wire.Packet{Type: wire.TypeDiscoveryQuery, Group: r.cfg.Group}
	buf, err := q.AppendMarshal(r.scratch[:0])
	if err != nil {
		return
	}
	r.scratch = buf
	r.mx.tx.Record(int(wire.ClassControl), len(buf))
	_ = r.env.Multicast(r.cfg.Group, ttl, buf)
	r.stats.DiscoveryQueries++
	r.mx.discoveries.Inc()
	r.after(r.cfg.DiscoveryTimeout, func() {
		if r.secondary != nil || !r.discovering {
			return
		}
		switch ttl {
		case transport.TTLSite:
			r.discoverLogger(transport.TTLRegion)
		case transport.TTLRegion:
			r.discoverLogger(transport.TTLGlobal)
		default:
			// Nobody answered: recovery will use the primary directly.
			r.discovering = false
		}
	})
}

func (r *Receiver) onDiscoveryReply(p *wire.Packet) {
	if r.secondary != nil {
		return // first (nearest) reply wins
	}
	addr, err := r.env.ParseAddr(p.Addr)
	if err != nil {
		r.stats.Malformed++
		return
	}
	r.secondary = addr
	r.discovering = false
	r.stats.DiscoveredLogger++
}

func (r *Receiver) onRedirect(p *wire.Packet) {
	addr, err := r.env.ParseAddr(p.Addr)
	if err != nil {
		r.stats.Malformed++
		return
	}
	st := r.stream(StreamKey{Source: p.Source, Group: p.Group})
	// Epoch fence (§2.2.3): a redirect stamped with a lower primary epoch
	// than we have already observed comes from a fenced, stale primary
	// (e.g. one acking into a healed partition). It must not move our
	// recovery target.
	if p.Epoch < st.primaryEpoch {
		r.stats.StaleRedirects++
		r.mx.staleRedirects.Inc()
		r.mx.sink.Emit(r.now(), obs.KindFenceHit, uint64(st.primaryEpoch), uint64(p.Epoch), uint64(p.Type))
		return
	}
	if p.Epoch > st.primaryEpoch {
		r.mx.sink.Emit(r.now(), obs.KindEpochBump, uint64(st.primaryEpoch), uint64(p.Epoch), 0)
		st.primaryEpoch = p.Epoch
		r.mx.primaryEpoch.Set(int64(p.Epoch))
	}
	if p.Epoch > r.priEpochHigh {
		r.priEpochHigh = p.Epoch
	}
	// A redirect naming the primary we already tried carries no new
	// information: let the escalation run its course (otherwise a source
	// that keeps naming a dead primary pins us in a retry loop forever).
	same := st.primary == addr
	st.primary = addr
	if same {
		return
	}
	if st.phase >= r.phasePrimary() {
		// A genuinely new primary invalidates retries burned against the
		// old (dead) address: re-target the in-flight retry at the new
		// primary immediately instead of letting MaxRetries expire against
		// a host that will never answer.
		st.phase = r.phasePrimary()
		st.retries = 0
		if st.retryArmed {
			st.retryArmed = false
			st.retryTimer.Stop()
			r.requestRetransmission(st)
		}
	}
}

// onReparent adopts a recovered tier node back into the receiver's
// escalation chain (graceful degradation, DESIGN.md §13): a logger at
// tier t re-announcing itself replaces chain[t] so subsequent tier-t
// NACKs land at the live node. Two fences keep stale announcements out:
// the per-tier tree epoch rejects replays, and the stamped primary epoch
// (when present) rejects announcers partitioned behind a primary
// failover.
func (r *Receiver) onReparent(p *wire.Packet) {
	// chain[i] holds the logger at global tier i (chain[0] = site
	// secondary), so the announcer's tier is its chain slot directly.
	// Tier-0 loggers never announce, and the primary tier (== len(chain))
	// is owned by the redirect protocol, not reparenting.
	t := p.Tier()
	if t < 1 || t >= len(r.chain) {
		return
	}
	addr, err := r.env.ParseAddr(p.Addr)
	if err != nil {
		r.stats.Malformed++
		return
	}
	if (p.Epoch != 0 && p.Epoch < r.priEpochHigh) || p.TreeEpoch <= r.tierEpochs[t] {
		r.stats.StaleReparents++
		r.mx.staleReparents.Inc()
		r.mx.sink.Emit(r.now(), obs.KindReparent, uint64(t), uint64(p.TreeEpoch), 0)
		return
	}
	// A fresh tree epoch is an adoption even at an unchanged address: a
	// restarted logger re-announcing from the same host wants pending
	// retries back just as much as a replacement on a new one.
	r.tierEpochs[t] = p.TreeEpoch
	r.chain[t] = addr
	r.stats.ReparentsFollowed++
	r.mx.reparents.Inc()
	r.mx.sink.Emit(r.now(), obs.KindReparent, uint64(t), uint64(p.TreeEpoch), 1)
	// Any stream currently retrying the replaced tier re-fires at the live
	// node immediately instead of burning out its backoff there.
	for _, st := range r.streams {
		if st.phase == t && st.retryArmed {
			st.retries = 0
			st.retryArmed = false
			st.retryTimer.Stop()
			r.requestRetransmission(st)
		}
	}
}
