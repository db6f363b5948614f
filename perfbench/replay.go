package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"lbrm/internal/logger"
	"lbrm/internal/seqtrack"
	"lbrm/internal/transport"
	"lbrm/internal/transport/udp"
	"lbrm/internal/wire"
)

// Stage-alone replays: the datagrams one receiver and the secondary saw
// during the traced run, pushed again through a single layer's public
// calls. Each replay repeats until it has run for replayBudget and reports
// the median ns per call over its repetitions.
const (
	replayBudget  = 150 * time.Millisecond
	replayMinReps = 3
)

type replayResult struct {
	decodeNS, encodeNS, arrivalNS, putNS, getNS float64
	dgrams, events, puts                        int
}

// timeReps runs fn (which makes calls calls) until the budget is spent
// and returns the median ns per call.
func timeReps(calls int, fn func()) float64 {
	if calls == 0 {
		return 0
	}
	var per []float64
	start := mono()
	for len(per) < replayMinReps || mono()-start < int64(replayBudget) {
		t0 := mono()
		fn()
		per = append(per, float64(mono()-t0)/float64(calls))
	}
	return median(per)
}

func replayAll(rep *report, rxRec, secRec *recording) replayResult {
	var r replayResult
	dgrams := append(append([][]byte(nil), rxRec.dgrams...), secRec.dgrams...)
	r.dgrams = len(dgrams)

	// wire: decode every datagram with a reused Decoder, then re-encode
	// the decoded packets into a reused buffer (AppendMarshal is the
	// encoding call the handlers make; Marshal adds a fresh allocation).
	var dec wire.Decoder
	var pkt wire.Packet
	r.decodeNS = timeReps(len(dgrams), func() {
		for _, b := range dgrams {
			_ = dec.Unmarshal(b, &pkt) // errors are counted by the round-trip check below
		}
	})
	pkts := make([]wire.Packet, len(dgrams))
	buf := make([]byte, 0, wire.MaxPacketLen)
	for i, b := range dgrams {
		if err := pkts[i].Unmarshal(b); err != nil {
			rep.fail(fmt.Errorf("wire replay: recorded datagram %d does not decode: %w", i, err))
			continue
		}
		out, err := pkts[i].AppendMarshal(buf[:0])
		if err != nil || !bytes.Equal(out, b) {
			rep.fail(fmt.Errorf("wire replay: datagram %d (%v) does not re-encode to its bytes: %v", i, pkts[i].Type, err))
		}
	}
	r.encodeNS = timeReps(len(pkts), func() {
		for i := range pkts {
			buf, _ = pkts[i].AppendMarshal(buf[:0])
		}
	})

	// seqtrack: the receiver's arrival order through Mark + AppendMissing,
	// as the receiver's gap check runs them.
	events := rxRec.events
	r.events = len(events)
	r.arrivalNS = timeReps(len(events), func() { replaySeqtrack(events) })

	// logger.Store: the secondary's logged packets through Put, then one
	// Get per logged sequence number.
	type put struct {
		seq     uint64
		payload []byte
	}
	var puts []put
	for i, b := range secRec.dgrams {
		if t := wireType(b); t == wire.TypeData || t == wire.TypeRetrans {
			puts = append(puts, put{pkts[len(rxRec.dgrams)+i].Seq, pkts[len(rxRec.dgrams)+i].Payload})
		}
	}
	r.puts = len(puts)
	now := time.Unix(0, 0)
	var store *logger.Store
	r.putNS = timeReps(len(puts), func() {
		store = logger.NewStore(logger.Retention{})
		for _, p := range puts {
			store.SetBase(p.seq - 1)
			store.Put(p.seq, p.payload, now)
		}
	})
	r.getNS = timeReps(len(puts), func() {
		for _, p := range puts {
			if _, ok := store.Get(p.seq); !ok {
				panic("store replay: a logged seq is missing") // Put accepted it above
			}
		}
	})
	return r
}

// replaySeqtrack mirrors the receiver's bookkeeping: a data or repair
// arrival marks its seq and, when new, recomputes the missing ranges up
// to the highest seq seen or heartbeat-announced; a heartbeat raises that
// bound and recomputes; an abandoned range is marked through.
func replaySeqtrack(events []seqEvent) {
	var t seqtrack.Tracker
	var hb uint64
	miss := make([]wire.SeqRange, 0, wire.MaxNackRanges)
	for _, e := range events {
		switch e.kind {
		case evData:
			if !t.Contacted() && e.from > 0 {
				t.SetBase(e.from - 1)
			}
			if !t.Mark(e.from) {
				continue
			}
		case evHeartbeat:
			t.SetBase(e.from)
			hb = max(hb, e.from)
		case evLost:
			for s := e.from; s <= e.to; s++ {
				t.Mark(s)
			}
		}
		miss = t.AppendMissing(miss[:0], max(t.Highest(), hb), wire.MaxNackRanges)
	}
}

func (r replayResult) add(rep *report) {
	rep.addLayer("wire.decode_ns", "ns", r.decodeNS, int64(r.dgrams), "replay: Decoder.Unmarshal per datagram")
	rep.addLayer("wire.encode_ns", "ns", r.encodeNS, int64(r.dgrams), "replay: Packet.AppendMarshal per datagram")
	rep.addLayer("seqtrack.arrival_ns", "ns", r.arrivalNS, int64(r.events), "replay: Mark + AppendMissing per receiver event")
	rep.addLayer("store.put_ns", "ns", r.putNS, int64(r.puts), "replay: Store.Put per logged packet")
	rep.addLayer("store.get_ns", "ns", r.getNS, int64(r.puts), "replay: Store.Get per logged packet")
}

// counter is a handler that only counts what it receives.
type counter struct {
	env transport.Env
	n   atomic.Int64
}

func (c *counter) Start(env transport.Env)     { c.env = env }
func (c *counter) Recv(transport.Addr, []byte) { c.n.Add(1) }

// Ingress flood parameters: the source sends floodBatch datagrams per
// Node.Do and keeps at most floodWindow in flight, so the receiving
// socket's buffer never overflows.
const (
	floodDuration = 500 * time.Millisecond
	floodBatch    = 16
	floodWindow   = 64
)

// ingressFlood sends recorded datagrams from one node to a second node
// whose handler only counts them, and returns the CPU nanoseconds per
// datagram received spent outside the sending goroutine: the receiving
// node's recvmmsg loop and dispatch, plus the runtime work it causes. The
// sending goroutine is pinned to its thread so its own CPU (including the
// loopback's kernel receive path, which runs in the sender's syscall) can
// be read with RUSAGE_THREAD and subtracted.
func ingressFlood(dgrams [][]byte) (float64, error) {
	if len(dgrams) == 0 {
		return 0, nil
	}
	sink := &counter{}
	rn, err := udp.Start(udp.Config{Listen: "127.0.0.1:0"}, sink)
	if err != nil {
		return 0, err
	}
	defer rn.Close()
	src := &counter{}
	sn, err := udp.Start(udp.Config{Listen: "127.0.0.1:0"}, src)
	if err != nil {
		return 0, err
	}
	defer sn.Close()
	dst := rn.Addr()

	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	u0, th0, start := readUsage(), threadCPU(), mono()
	var sent, lost int64
	var sendErr error
	i := 0
	for mono()-start < int64(floodDuration) {
		stall := mono()
		for sent-lost-sink.n.Load() > floodWindow {
			if mono()-stall > int64(2*time.Millisecond) {
				lost = sent - sink.n.Load() // the socket dropped some; stop waiting for them
				break
			}
			time.Sleep(20 * time.Microsecond)
		}
		sn.Do(func() {
			for j := 0; j < floodBatch; j++ {
				if err := src.env.Send(dst, dgrams[i%len(dgrams)]); err != nil && sendErr == nil {
					sendErr = err
				}
				i++
			}
		})
		sent += floodBatch
	}
	for deadline := mono() + int64(100*time.Millisecond); sink.n.Load() < sent-lost && mono() < deadline; {
		time.Sleep(50 * time.Microsecond)
	}
	u1, th1 := readUsage(), threadCPU()
	if sendErr != nil {
		return 0, sendErr
	}
	got := sink.n.Load()
	return ratio(float64((u1.cpuNS-u0.cpuNS)-(th1-th0)), float64(got)), nil
}
