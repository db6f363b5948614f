package core

import (
	"fmt"
	"testing"
	"time"

	"lbrm/internal/obs"
	"lbrm/internal/transport"
	"lbrm/internal/transport/transporttest"
	"lbrm/internal/wire"
)

var (
	tSecondary = transporttest.Addr("secondary")
	tSrcAddr   = transporttest.Addr("srcaddr")
)

type delivered struct {
	seq     uint64
	payload string
	retrans bool
}

type rcvHarness struct {
	r     *Receiver
	env   *transporttest.Env
	got   []delivered
	stale []StreamKey
	fresh []StreamKey
	lost  []wire.SeqRange
}

func newReceiver(t *testing.T, cfg ReceiverConfig) *rcvHarness {
	t.Helper()
	h := &rcvHarness{}
	if cfg.Group == 0 {
		cfg.Group = tGroup
	}
	if cfg.Heartbeat.HMin == 0 {
		cfg.Heartbeat = hbParams
	}
	if cfg.Secondary == nil && !cfg.Discover {
		cfg.Secondary = tSecondary
	}
	if cfg.Primary == nil {
		cfg.Primary = tPrimary
	}
	base := cfg.OnData
	cfg.OnData = func(e Event) {
		h.got = append(h.got, delivered{seq: e.Seq, payload: string(e.Payload), retrans: e.Retransmitted})
		if base != nil {
			base(e)
		}
	}
	cfg.OnStale = func(k StreamKey, d time.Duration) { h.stale = append(h.stale, k) }
	cfg.OnFresh = func(k StreamKey) { h.fresh = append(h.fresh, k) }
	cfg.OnLost = func(k StreamKey, rg wire.SeqRange) { h.lost = append(h.lost, rg) }
	h.r = NewReceiver(cfg)
	h.env = transporttest.NewEnv("receiver")
	h.r.Start(h.env)
	return h
}

func (h *rcvHarness) data(t *testing.T, seq uint64, payload string) {
	t.Helper()
	p := wire.Packet{Type: wire.TypeData, Source: tSource, Group: tGroup,
		Seq: seq, Payload: []byte(payload)}
	b, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	h.r.Recv(tSrcAddr, b)
}

func (h *rcvHarness) retrans(t *testing.T, from transport.Addr, seq uint64, payload string) {
	t.Helper()
	p := wire.Packet{Type: wire.TypeRetrans, Flags: wire.FlagRetransmission | wire.FlagFromLogger,
		Source: tSource, Group: tGroup, Seq: seq, Payload: []byte(payload)}
	b, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	h.r.Recv(from, b)
}

func (h *rcvHarness) heartbeat(t *testing.T, seq uint64, idx uint32) {
	t.Helper()
	p := wire.Packet{Type: wire.TypeHeartbeat, Source: tSource, Group: tGroup,
		Seq: seq, HeartbeatIdx: idx}
	b, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	h.r.Recv(tSrcAddr, b)
}

var streamKey = StreamKey{Source: tSource, Group: tGroup}

func TestReceiverDeliversAndSuppressesDuplicates(t *testing.T) {
	h := newReceiver(t, ReceiverConfig{})
	if !h.env.Joined[tGroup] {
		t.Fatal("receiver did not join group")
	}
	h.data(t, 1, "one")
	h.data(t, 2, "two")
	h.data(t, 2, "two")
	if len(h.got) != 2 || h.got[0].payload != "one" || h.got[1].payload != "two" {
		t.Fatalf("delivered %v", h.got)
	}
	if h.r.Stats().Duplicates != 1 {
		t.Fatalf("stats = %+v", h.r.Stats())
	}
	if h.r.Contiguous(streamKey) != 2 {
		t.Fatalf("Contiguous = %d", h.r.Contiguous(streamKey))
	}
}

func TestReceiverGapTriggersNackToSecondary(t *testing.T) {
	h := newReceiver(t, ReceiverConfig{NackDelay: 10 * time.Millisecond})
	h.data(t, 1, "one")
	h.data(t, 4, "four")
	if len(h.env.Sents) != 0 {
		t.Fatal("NACK before reorder delay")
	}
	h.env.Advance(15 * time.Millisecond)
	sents := h.env.SentPackets()
	if len(sents) != 1 || sents[0].Type != wire.TypeNack {
		t.Fatalf("want NACK, got %v", sents)
	}
	if h.env.Sents[0].To != tSecondary {
		t.Fatalf("NACK to %v, want secondary", h.env.Sents[0].To)
	}
	if rg := sents[0].Ranges[0]; rg.From != 2 || rg.To != 3 {
		t.Fatalf("ranges = %v, want [2,3]", sents[0].Ranges)
	}
	// Out-of-sequence delivery happened immediately (receiver-reliable:
	// freshest data is not delayed by recovery).
	if len(h.got) != 2 || h.got[1].payload != "four" {
		t.Fatalf("delivered %v", h.got)
	}
}

func TestReceiverReorderWithinDelaySuppressesNack(t *testing.T) {
	h := newReceiver(t, ReceiverConfig{NackDelay: 20 * time.Millisecond})
	h.data(t, 2, "two") // arrives before 1
	h.data(t, 1, "one") // reorder, not loss
	h.env.Advance(time.Second)
	if len(h.env.Sents) != 0 {
		t.Fatalf("NACK for simple reordering: %v", h.env.SentPackets())
	}
}

func TestReceiverRecoveryCancelsRetries(t *testing.T) {
	h := newReceiver(t, ReceiverConfig{NackDelay: 10 * time.Millisecond, RequestTimeout: 100 * time.Millisecond})
	h.data(t, 1, "one")
	h.data(t, 3, "three")
	h.env.Advance(15 * time.Millisecond)
	h.retrans(t, tSecondary, 2, "two")
	if len(h.got) != 3 || !h.got[2].retrans || h.got[2].payload != "two" {
		t.Fatalf("delivered %v", h.got)
	}
	h.env.Sents = nil
	h.env.Advance(5 * time.Second)
	if len(h.env.Sents) != 0 {
		t.Fatalf("retries after recovery: %v", h.env.SentPackets())
	}
	if h.r.Stats().Recovered != 1 {
		t.Fatalf("stats = %+v", h.r.Stats())
	}
}

func TestReceiverEscalatesToPrimaryThenSource(t *testing.T) {
	h := newReceiver(t, ReceiverConfig{
		NackDelay: 10 * time.Millisecond, RequestTimeout: 100 * time.Millisecond,
		SecondaryRetries: 2, PrimaryRetries: 2,
	})
	h.data(t, 1, "one")
	h.data(t, 3, "three")
	h.env.Advance(3 * time.Second)
	var toSecondary, toPrimary, queries int
	for i, p := range h.env.SentPackets() {
		switch p.Type {
		case wire.TypeNack:
			switch h.env.Sents[i].To {
			case tSecondary:
				toSecondary++
			case tPrimary:
				toPrimary++
			}
		case wire.TypePrimaryQuery:
			queries++
			if h.env.Sents[i].To != tSrcAddr {
				t.Fatalf("PrimaryQuery to %v, want source", h.env.Sents[i].To)
			}
		}
	}
	if toSecondary != 2 || toPrimary < 2 || queries != 1 {
		t.Fatalf("sec=%d pri=%d query=%d, want 2/≥2/1", toSecondary, toPrimary, queries)
	}
	// Eventually abandoned.
	if len(h.lost) == 0 || h.lost[0] != (wire.SeqRange{From: 2, To: 2}) {
		t.Fatalf("lost = %v", h.lost)
	}
	if h.r.Stats().RangesAbandoned == 0 {
		t.Fatalf("stats = %+v", h.r.Stats())
	}
	// Later packets still delivered; abandoned gap not re-requested.
	h.env.Sents = nil
	h.data(t, 4, "four")
	h.env.Advance(time.Second)
	for _, p := range h.env.SentPackets() {
		if p.Type == wire.TypeNack {
			for _, rg := range p.Ranges {
				if rg.Contains(2) {
					t.Fatal("re-requested abandoned seq")
				}
			}
		}
	}
}

func TestReceiverFollowsRedirectDuringRecovery(t *testing.T) {
	h := newReceiver(t, ReceiverConfig{
		NackDelay: 10 * time.Millisecond, RequestTimeout: 50 * time.Millisecond,
		SecondaryRetries: 1, PrimaryRetries: 2,
	})
	h.data(t, 1, "one")
	h.data(t, 3, "three")
	// Let it exhaust the secondary and go to primary, then answer the
	// primary query with a redirect.
	h.env.Advance(200 * time.Millisecond)
	newPrimary := transporttest.Addr("promoted")
	redir := wire.Packet{Type: wire.TypePrimaryRedirect, Source: tSource, Group: tGroup,
		Addr: newPrimary.String()}
	b, _ := redir.Marshal()
	h.r.Recv(tSrcAddr, b)
	h.env.Sents = nil
	h.env.Advance(300 * time.Millisecond)
	sentToNew := false
	for i, p := range h.env.SentPackets() {
		if p.Type == wire.TypeNack && h.env.Sents[i].To == newPrimary {
			sentToNew = true
		}
	}
	if !sentToNew {
		t.Fatal("no NACK to redirected primary")
	}
	// The promoted primary serves it.
	h.retrans(t, newPrimary, 2, "two")
	if h.r.Contiguous(streamKey) != 3 {
		t.Fatalf("Contiguous = %d after redirect recovery", h.r.Contiguous(streamKey))
	}
}

func TestReceiverHeartbeatRevealsLoss(t *testing.T) {
	h := newReceiver(t, ReceiverConfig{NackDelay: 10 * time.Millisecond})
	h.data(t, 1, "one")
	h.heartbeat(t, 2, 1)
	h.env.Advance(15 * time.Millisecond)
	sents := h.env.SentPackets()
	if len(sents) != 1 || sents[0].Type != wire.TypeNack {
		t.Fatalf("want NACK, got %v", sents)
	}
	if rg := sents[0].Ranges[0]; rg.From != 2 || rg.To != 2 {
		t.Fatalf("ranges = %v", sents[0].Ranges)
	}
	if h.r.Stats().HeartbeatsSeen != 1 || h.r.Stats().GapsDetected != 1 {
		t.Fatalf("stats = %+v", h.r.Stats())
	}
}

func TestReceiverInlineHeartbeatRecovers(t *testing.T) {
	h := newReceiver(t, ReceiverConfig{NackDelay: 10 * time.Millisecond})
	h.data(t, 1, "one")
	p := wire.Packet{Type: wire.TypeHeartbeat, Flags: wire.FlagInlineData,
		Source: tSource, Group: tGroup, Seq: 2, HeartbeatIdx: 1, Payload: []byte("two")}
	b, _ := p.Marshal()
	h.r.Recv(tSrcAddr, b)
	if len(h.got) != 2 || h.got[1].payload != "two" || !h.got[1].retrans {
		t.Fatalf("delivered %v", h.got)
	}
	h.env.Advance(time.Second)
	if len(h.env.Sents) != 0 {
		t.Fatal("NACKed a loss repaired by inline heartbeat")
	}
	if h.r.Stats().RecoveredInline != 1 {
		t.Fatalf("stats = %+v", h.r.Stats())
	}
}

func TestReceiverLateJoinViaData(t *testing.T) {
	h := newReceiver(t, ReceiverConfig{})
	h.data(t, 100, "current")
	h.env.Advance(time.Second)
	if len(h.env.Sents) != 0 {
		t.Fatalf("late joiner requested history: %v", h.env.SentPackets())
	}
	if len(h.got) != 1 || h.got[0].seq != 100 {
		t.Fatalf("delivered %v", h.got)
	}
	// The next gap is still caught.
	h.data(t, 102, "next")
	h.env.Advance(time.Second)
	sents := h.env.SentPackets()
	if len(sents) != 0 {
		if rg := sents[0].Ranges[0]; rg.From != 101 || rg.To != 101 {
			t.Fatalf("ranges = %v, want [101,101]", sents[0].Ranges)
		}
	} else {
		t.Fatal("no NACK for post-join gap")
	}
}

func TestReceiverLateJoinViaHeartbeat(t *testing.T) {
	h := newReceiver(t, ReceiverConfig{})
	h.heartbeat(t, 50, 3)
	h.env.Advance(time.Second)
	if len(h.env.Sents) != 0 {
		t.Fatal("heartbeat-first join requested history")
	}
	h.data(t, 51, "next")
	if len(h.got) != 1 || h.got[0].seq != 51 {
		t.Fatalf("delivered %v", h.got)
	}
}

func TestReceiverFreshnessLifecycle(t *testing.T) {
	h := newReceiver(t, ReceiverConfig{StaleFactor: 2, StaleSlack: 5 * time.Millisecond})
	h.data(t, 1, "one")
	// Expected next packet within HMin (10ms); stale after 2×10+5 = 25ms.
	h.env.Advance(20 * time.Millisecond)
	if h.r.Stale(streamKey) {
		t.Fatal("stale too early")
	}
	h.env.Advance(10 * time.Millisecond)
	if !h.r.Stale(streamKey) {
		t.Fatal("not stale after silence")
	}
	if len(h.stale) != 1 {
		t.Fatalf("OnStale calls = %d", len(h.stale))
	}
	// Traffic resumes → fresh again.
	h.heartbeat(t, 1, 1)
	if h.r.Stale(streamKey) {
		t.Fatal("still stale after heartbeat")
	}
	if len(h.fresh) != 1 {
		t.Fatalf("OnFresh calls = %d", len(h.fresh))
	}
}

func TestReceiverHeartbeatBackoffExtendsDeadline(t *testing.T) {
	h := newReceiver(t, ReceiverConfig{StaleFactor: 2, StaleSlack: 5 * time.Millisecond})
	h.data(t, 1, "one")
	// Follow the variable schedule: heartbeats at +10 (idx1), +30 (idx2),
	// +70 (idx3). After idx3, next interval is capped at HMax=80ms; the
	// receiver must tolerate 2×80+5 = 165ms of further silence.
	h.env.Advance(10 * time.Millisecond)
	h.heartbeat(t, 1, 1)
	h.env.Advance(20 * time.Millisecond)
	h.heartbeat(t, 1, 2)
	h.env.Advance(40 * time.Millisecond)
	h.heartbeat(t, 1, 3)
	h.env.Advance(160 * time.Millisecond)
	if h.r.Stale(streamKey) {
		t.Fatal("stale while heartbeat schedule still satisfied")
	}
	h.env.Advance(10 * time.Millisecond)
	if !h.r.Stale(streamKey) {
		t.Fatal("not stale after schedule exceeded")
	}
}

func TestReceiverOrderedDelivery(t *testing.T) {
	h := newReceiver(t, ReceiverConfig{Ordered: true, NackDelay: 10 * time.Millisecond})
	h.data(t, 1, "one")
	h.data(t, 3, "three") // buffered
	h.data(t, 4, "four")  // buffered
	if len(h.got) != 1 {
		t.Fatalf("ordered mode delivered out of order: %v", h.got)
	}
	h.env.Advance(15 * time.Millisecond)
	h.retrans(t, tSecondary, 2, "two")
	want := []string{"one", "two", "three", "four"}
	if len(h.got) != 4 {
		t.Fatalf("delivered %v", h.got)
	}
	for i, w := range want {
		if h.got[i].payload != w {
			t.Fatalf("order = %v, want %v", h.got, want)
		}
	}
}

func TestReceiverOrderedAbandonFlushes(t *testing.T) {
	h := newReceiver(t, ReceiverConfig{
		Ordered: true, NackDelay: 5 * time.Millisecond, RequestTimeout: 20 * time.Millisecond,
		SecondaryRetries: 1, PrimaryRetries: 1,
	})
	h.data(t, 1, "one")
	h.data(t, 3, "three")
	// Recovery of 2 fails everywhere; after abandonment, 3 must flush.
	h.env.Advance(2 * time.Second)
	if len(h.got) != 2 || h.got[1].payload != "three" {
		t.Fatalf("delivered %v, want stranded packet flushed", h.got)
	}
}

func TestReceiverDiscovery(t *testing.T) {
	h := newReceiver(t, ReceiverConfig{Discover: true, DiscoveryTimeout: 100 * time.Millisecond})
	if h.r.SecondaryAddr() != nil {
		t.Fatal("secondary known before discovery")
	}
	mc := h.env.McastPackets()
	if len(mc) != 1 || mc[0].Type != wire.TypeDiscoveryQuery {
		t.Fatalf("want discovery query, got %v", mc)
	}
	if h.env.Mcasts[0].TTL != transport.TTLSite {
		t.Fatalf("first ring TTL = %d, want site", h.env.Mcasts[0].TTL)
	}
	// No reply: the ring expands.
	h.env.Mcasts = nil
	h.env.Advance(110 * time.Millisecond)
	mc = h.env.McastPackets()
	if len(mc) != 1 || h.env.Mcasts[0].TTL != transport.TTLRegion {
		t.Fatalf("second ring = %v ttl=%d", mc, h.env.Mcasts[0].TTL)
	}
	// A logger answers.
	reply := wire.Packet{Type: wire.TypeDiscoveryReply, Group: tGroup,
		Addr: tSecondary.String()}
	b, _ := reply.Marshal()
	h.r.Recv(tSecondary, b)
	if h.r.SecondaryAddr() != tSecondary {
		t.Fatalf("secondary = %v", h.r.SecondaryAddr())
	}
	// No further rings.
	h.env.Mcasts = nil
	h.env.Advance(time.Second)
	if len(h.env.Mcasts) != 0 {
		t.Fatal("discovery continued after success")
	}
	// Recovery uses the discovered logger.
	h.data(t, 1, "one")
	h.data(t, 3, "three")
	h.env.Advance(50 * time.Millisecond)
	found := false
	for i, p := range h.env.SentPackets() {
		if p.Type == wire.TypeNack && h.env.Sents[i].To == tSecondary {
			found = true
		}
	}
	if !found {
		t.Fatal("recovery did not use discovered logger")
	}
}

func TestReceiverDiscoveryFallsBackToPrimary(t *testing.T) {
	h := newReceiver(t, ReceiverConfig{
		Discover: true, DiscoveryTimeout: 50 * time.Millisecond,
		NackDelay: 10 * time.Millisecond, RequestTimeout: 50 * time.Millisecond,
	})
	h.env.Advance(300 * time.Millisecond) // all rings exhausted, no reply
	h.data(t, 1, "one")
	h.data(t, 3, "three")
	h.env.Advance(100 * time.Millisecond)
	toPrimary := false
	for i, p := range h.env.SentPackets() {
		if p.Type == wire.TypeNack && h.env.Sents[i].To == tPrimary {
			toPrimary = true
		}
	}
	if !toPrimary {
		t.Fatal("no fallback to primary after failed discovery")
	}
}

func TestReceiverIgnoresForeignGroupAndGarbage(t *testing.T) {
	h := newReceiver(t, ReceiverConfig{})
	p := wire.Packet{Type: wire.TypeData, Source: tSource, Group: 99, Seq: 1, Payload: []byte("x")}
	b, _ := p.Marshal()
	h.r.Recv(tSrcAddr, b)
	h.r.Recv(tSrcAddr, []byte("junk"))
	if len(h.got) != 0 {
		t.Fatalf("delivered foreign traffic: %v", h.got)
	}
	if h.r.Stats().Malformed != 1 {
		t.Fatalf("stats = %+v", h.r.Stats())
	}
}

func TestReceiverManyStreams(t *testing.T) {
	h := newReceiver(t, ReceiverConfig{})
	for src := 1; src <= 10; src++ {
		for seq := 1; seq <= 5; seq++ {
			p := wire.Packet{Type: wire.TypeData, Source: wire.SourceID(src), Group: tGroup,
				Seq: uint64(seq), Payload: []byte(fmt.Sprintf("%d/%d", src, seq))}
			b, _ := p.Marshal()
			h.r.Recv(tSrcAddr, b)
		}
	}
	if len(h.got) != 50 {
		t.Fatalf("delivered %d, want 50", len(h.got))
	}
	for src := 1; src <= 10; src++ {
		k := StreamKey{Source: wire.SourceID(src), Group: tGroup}
		if h.r.Contiguous(k) != 5 {
			t.Fatalf("stream %d contig = %d", src, h.r.Contiguous(k))
		}
	}
}

func TestReceiverRetransChannelRecovery(t *testing.T) {
	const channel = wire.GroupID(99)
	h := newReceiver(t, ReceiverConfig{
		RetransChannel: channel,
		NackDelay:      10 * time.Millisecond,
	})
	h.data(t, 1, "one")
	h.data(t, 3, "three") // gap at 2 → subscribe to the channel
	if !h.env.Joined[channel] {
		t.Fatal("did not join retransmission channel on loss")
	}
	// A channel replay heals the gap before any NACK goes out.
	h.retrans(t, tSrcAddr, 2, "two")
	if h.env.Joined[channel] {
		t.Fatal("did not leave channel after healing")
	}
	h.env.Advance(5 * time.Second)
	if len(h.env.Sents) != 0 {
		t.Fatalf("NACKs sent despite channel recovery: %v", h.env.SentPackets())
	}
	st := h.r.Stats()
	if st.ChannelJoins != 1 || st.ChannelRecoveries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if len(h.got) != 3 || h.got[2].payload != "two" {
		t.Fatalf("delivered %v", h.got)
	}
}

func TestReceiverRetransChannelFallsBackToNack(t *testing.T) {
	const channel = wire.GroupID(99)
	h := newReceiver(t, ReceiverConfig{
		RetransChannel: channel,
		RetransWait:    50 * time.Millisecond,
		NackDelay:      10 * time.Millisecond,
	})
	h.data(t, 1, "one")
	h.data(t, 3, "three")
	// Nothing on the channel: after NackDelay+RetransWait the normal NACK
	// path starts.
	h.env.Advance(30 * time.Millisecond)
	if len(h.env.Sents) != 0 {
		t.Fatal("NACK sent before channel wait expired")
	}
	h.env.Advance(50 * time.Millisecond)
	sents := h.env.SentPackets()
	if len(sents) != 1 || sents[0].Type != wire.TypeNack {
		t.Fatalf("want NACK fallback, got %v", sents)
	}
	// Recovery via the secondary still heals and unsubscribes.
	h.retrans(t, tSecondary, 2, "two")
	if h.env.Joined[channel] {
		t.Fatal("still subscribed after recovery")
	}
}

func TestReceiverStopSilences(t *testing.T) {
	h := newReceiver(t, ReceiverConfig{NackDelay: 10 * time.Millisecond})
	h.data(t, 1, "one")
	h.data(t, 3, "three") // gap → recovery armed
	h.r.Stop()
	h.env.Advance(10 * time.Second)
	if len(h.env.Sents) != 0 {
		t.Fatalf("stopped receiver sent %d packets", len(h.env.Sents))
	}
	// Ignores traffic after Stop.
	h.data(t, 4, "four")
	if len(h.got) != 2 {
		t.Fatalf("stopped receiver delivered: %v", h.got)
	}
}

func TestReceiverOrderedBufferOverflowAbandonsOldestGap(t *testing.T) {
	h := newReceiver(t, ReceiverConfig{
		Ordered:          true,
		OrderedBufferMax: 4,
		NackDelay:        time.Hour, // recovery never fires: only overflow helps
	})
	h.data(t, 1, "one")
	// Hole at 2; buffer 3..7 (5 packets > max 4) → overflow abandons [2,2]
	// and flushes.
	for seq := uint64(3); seq <= 7; seq++ {
		h.data(t, seq, fmt.Sprintf("p%d", seq))
	}
	if len(h.lost) != 1 || !h.lost[0].Contains(2) {
		t.Fatalf("lost = %v, want seq 2 abandoned on overflow", h.lost)
	}
	want := []string{"one", "p3", "p4", "p5", "p6", "p7"}
	if len(h.got) != len(want) {
		t.Fatalf("delivered %v", h.got)
	}
	for i, w := range want {
		if h.got[i].payload != w {
			t.Fatalf("order = %v", h.got)
		}
	}
}

func TestReceiverRecoveryWindowSkipsForgedHead(t *testing.T) {
	h := newReceiver(t, ReceiverConfig{NackDelay: 10 * time.Millisecond, RecoveryWindow: 100})
	h.data(t, 1, "one")
	// A (forged or hopelessly-late) heartbeat claims seq 1<<50.
	h.heartbeat(t, 1<<50, 1)
	if h.r.Stats().SkippedAhead != 1 {
		t.Fatalf("stats = %+v, want a window skip", h.r.Stats())
	}
	if len(h.lost) != 1 || h.lost[0].From != 2 {
		t.Fatalf("OnLost = %v, want the skipped span reported", h.lost)
	}
	// Only the last 100 seqs are chased.
	h.env.Advance(50 * time.Millisecond)
	for _, p := range h.env.SentPackets() {
		if p.Type == wire.TypeNack {
			for _, rg := range p.Ranges {
				if rg.Count() > 100 || rg.From <= (1<<50)-100 {
					t.Fatalf("NACK chases outside the window: %v", rg)
				}
			}
		}
	}
	// The stream continues normally at the new head.
	h.data(t, 1<<50+1, "fresh")
	if h.got[len(h.got)-1].payload != "fresh" {
		t.Fatalf("delivery after skip: %v", h.got)
	}
}

// TestReceiverWideGapDetectedOnce scripts a 4,000-seq heartbeat-revealed
// gap, widened by a second heartbeat, then splits it into more ranges than one NACK carries and opens
// further gaps above them. Every missing seq must be registered exactly
// once: the wide gap on the heartbeat, the gaps past the range cap only
// once repairs bring them inside it.
func TestReceiverWideGapDetectedOnce(t *testing.T) {
	sink, err := obs.NewSinkWith(obs.Config{FlightRingSize: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	h := newReceiver(t, ReceiverConfig{NackDelay: time.Second, Obs: sink})
	h.data(t, 1, "x")
	// The second heartbeat widens the same open range past what the first
	// one registered.
	h.heartbeat(t, 2001, 1)
	h.heartbeat(t, 4001, 2)
	if got := h.r.Stats().GapsDetected; got != 4000 {
		t.Fatalf("GapsDetected after heartbeats = %d, want 4000", got)
	}
	// Repair every odd seq in the gap: ~2,000 single-seq ranges remain,
	// far more than MaxNackRanges.
	for seq := uint64(3); seq <= 4001; seq += 2 {
		h.retrans(t, tSecondary, seq, "r")
	}
	// New gaps above the head sit beyond the first MaxNackRanges ranges.
	for seq := uint64(4003); seq <= 4101; seq += 2 {
		h.data(t, seq, "x")
	}
	if got := h.r.Stats().GapsDetected; got != 4000 {
		t.Fatalf("GapsDetected with gaps past the range cap = %d, want 4000", got)
	}
	for seq := uint64(2); seq <= 4001; seq += 2 {
		h.retrans(t, tSecondary, seq, "r")
	}
	want := map[uint64]uint64{} // seq → heartbeat-revealed flag
	for seq := uint64(2); seq <= 4001; seq++ {
		want[seq] = 1
	}
	for seq := uint64(4002); seq <= 4100; seq += 2 {
		want[seq] = 0
	}
	if got := h.r.Stats().GapsDetected; got != uint64(len(want)) {
		t.Fatalf("GapsDetected = %d, want %d", got, len(want))
	}
	seen := map[uint64]bool{}
	for _, ev := range sink.FlightRing().Snapshot() {
		if ev.Kind != obs.KindGapDetect {
			continue
		}
		hb, ok := want[ev.A]
		if !ok || seen[ev.A] || ev.B != hb {
			t.Fatalf("gap-detect seq %d hb=%d: expected=%v duplicate=%v want hb=%d", ev.A, ev.B, ok, seen[ev.A], hb)
		}
		seen[ev.A] = true
	}
	if len(seen) != len(want) {
		t.Fatalf("flight recorded %d gap detections, want %d", len(seen), len(want))
	}
}

// BenchmarkReceiverArrivalWideGap measures one in-order data arrival while
// a heartbeat-revealed gap of the given width stays open: the per-arrival
// cost must not grow with the width.
func BenchmarkReceiverArrivalWideGap(b *testing.B) {
	for _, width := range []uint64{16, 512, 4000} {
		b.Run(fmt.Sprintf("gap=%d", width), func(b *testing.B) {
			// The window is wide enough that the head never forces a skip
			// past the gap during the run.
			r := NewReceiver(ReceiverConfig{Group: tGroup, Heartbeat: hbParams,
				Secondary: tSecondary, Primary: tPrimary, NackDelay: time.Hour,
				RecoveryWindow: 1 << 40})
			r.Start(transporttest.NewEnv("receiver"))
			var buf []byte
			send := func(typ wire.Type, seq uint64) {
				p := wire.Packet{Type: typ, Source: tSource, Group: tGroup, Seq: seq}
				var err error
				if buf, err = p.AppendMarshal(buf[:0]); err != nil {
					b.Fatal(err)
				}
				r.Recv(tSrcAddr, buf)
			}
			send(wire.TypeData, 1)
			send(wire.TypeHeartbeat, 1+width)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				send(wire.TypeData, 2+width+uint64(i))
			}
		})
	}
}

// TestReceiverMaxSeqHeartbeatDetects pins gap detection at the top of the
// sequence space: a heartbeat claiming seq 2^64-1 opens a missing range
// ending there, and registering it must terminate (a `seq <= To` loop
// never does) after clamping to RecoveryWindow.
func TestReceiverMaxSeqHeartbeatDetects(t *testing.T) {
	h := newReceiver(t, ReceiverConfig{})
	h.data(t, 1, "one")
	h.heartbeat(t, ^uint64(0), 1)
	if st := h.r.Stats(); st.SkippedAhead != 1 || st.GapsDetected != 4096 {
		t.Fatalf("stats = %+v, want one window skip and 4096 gaps", st)
	}
}
