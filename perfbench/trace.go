package main

import (
	"encoding/binary"
	"sync/atomic"
	"time"

	"lbrm/internal/transport"
	"lbrm/internal/vtime"
	"lbrm/internal/wire"
)

// Span kinds recorded by the traced run. Every span is timed from outside
// the layer it wraps: around a handler's Recv, a timer callback, an Env
// transmit, the application callback, or the generator's calls.
type kind uint8

const (
	kRecv     kind = iota // transport.Handler.Recv, self time, by wire type
	kTimer                // Env.AfterFunc callback, self time
	kEnvSend              // Env.Send (egress enqueue), by wire type
	kEnvMcast             // Env.Multicast (egress enqueue), by wire type
	kOnData               // the benchmark's OnData callback
	kSend                 // Sender.Send, self time
	kGen                  // generator work inside Node.Do besides Send
	numKinds
)

// numTypes covers every wire.Type (the byte at header offset 3).
const numTypes = 32

// acc accumulates span count and nanoseconds.
type acc struct{ n, ns int64 }

func (a *acc) add(ns int64) { a.n++; a.ns += ns }

// spans is one node's span table, indexed by kind and wire type.
type spans [numKinds][numTypes]acc

func (s *spans) sub(o *spans) spans {
	var d spans
	for k := range s {
		for t := range s[k] {
			d[k][t] = acc{s[k][t].n - o[k][t].n, s[k][t].ns - o[k][t].ns}
		}
	}
	return d
}

func (s *spans) addAll(o *spans) {
	for k := range s {
		for t := range s[k] {
			s[k][t].n += o[k][t].n
			s[k][t].ns += o[k][t].ns
		}
	}
}

// total sums one kind over the given wire types (all types when none).
func (s *spans) total(k kind, types ...wire.Type) acc {
	var a acc
	if len(types) == 0 {
		for t := range s[k] {
			a.n += s[k][t].n
			a.ns += s[k][t].ns
		}
		return a
	}
	for _, t := range types {
		a.n += s[k][t].n
		a.ns += s[k][t].ns
	}
	return a
}

// tracer is one node's tracing state. Every field is touched only inside
// the node's serialized callbacks (or Node.Do), so it needs no locking.
type tracer struct {
	acc spans
	// child accumulates the time of spans nested in the current span so
	// the enclosing span can report self time.
	child int64
	// firstRx[seq] is the instant a first-transmission TypeData for seq
	// entered Recv (receivers only): the far end of udp transit.
	firstRx []int64
	// rec, when set, records the datagrams this node saw for the
	// stage-alone replays.
	rec *recording
}

func newTracer(maxSeq int, rec *recording) *tracer {
	t := &tracer{rec: rec}
	if maxSeq > 0 {
		t.firstRx = make([]int64, maxSeq)
	}
	return t
}

// wireType returns a datagram's wire type, or 0 for a runt.
func wireType(data []byte) wire.Type {
	if len(data) < wire.HeaderLen {
		return 0
	}
	return wire.Type(data[3]) % numTypes
}

func wireSeq(data []byte) uint64 { return binary.BigEndian.Uint64(data[16:24]) }
func wireFlags(data []byte) wire.Flags {
	return wire.Flags(binary.BigEndian.Uint16(data[4:6]))
}

// tracedHandler times a handler's Recv by wire type and hands the handler
// a timing Env. A packet's spans share its header seq (the pipeline has
// one source), which is how its transit is matched between the sender's
// flush and every receiver's Recv.
type tracedHandler struct {
	inner transport.Handler
	tr    *tracer
	// started is false for handlers wrapped after their Start already ran
	// (the simulator testbed starts its handlers itself); such a wrapper
	// times Recv only.
	started bool
}

func (h *tracedHandler) Start(env transport.Env) {
	if h.started {
		return
	}
	h.started = true
	h.inner.Start(&tracedEnv{Env: env, tr: h.tr})
}

func (h *tracedHandler) Recv(from transport.Addr, data []byte) {
	tr := h.tr
	typ := wireType(data)
	if tr.rec != nil {
		tr.rec.datagram(data)
	}
	start := mono()
	if typ == wire.TypeData && tr.firstRx != nil && wireFlags(data)&wire.FlagRetransmission == 0 {
		if seq := wireSeq(data); seq < uint64(len(tr.firstRx)) && tr.firstRx[seq] == 0 {
			tr.firstRx[seq] = start
		}
	}
	outer := tr.child
	tr.child = 0
	h.inner.Recv(from, data)
	d := mono() - start
	tr.acc[kRecv][typ].add(d - tr.child)
	tr.child = outer + d
}

// tracedEnv times timer callbacks and transmissions.
type tracedEnv struct {
	transport.Env
	tr *tracer
}

func (e *tracedEnv) AfterFunc(d time.Duration, fn func()) vtime.Timer {
	tr := e.tr
	return e.Env.AfterFunc(d, func() {
		start := mono()
		outer := tr.child
		tr.child = 0
		fn()
		dur := mono() - start
		tr.acc[kTimer][0].add(dur - tr.child)
		tr.child = outer + dur
	})
}

func (e *tracedEnv) Send(to transport.Addr, data []byte) error {
	start := mono()
	err := e.Env.Send(to, data)
	d := mono() - start
	e.tr.acc[kEnvSend][wireType(data)].add(d)
	e.tr.child += d
	return err
}

func (e *tracedEnv) Multicast(g wire.GroupID, ttl int, data []byte) error {
	start := mono()
	err := e.Env.Multicast(g, ttl, data)
	d := mono() - start
	e.tr.acc[kEnvMcast][wireType(data)].add(d)
	e.tr.child += d
	return err
}

// dropShim is the lossy workload's loss injector: it drops a seeded share
// of first-transmission TypeData before the wrapped handler sees it. The
// decision hashes (seed, node, seq), so it does not depend on arrival
// order or timing. It stays disarmed through set-up, so the warm-up
// measures binding and the join race, not recovery.
type dropShim struct {
	inner transport.Handler
	p     float64
	salt  uint64
	armed atomic.Bool
	// in and passed count datagrams by wire type and retransmission flag.
	in, passed [numTypes][2]int64
}

func newDropShim(inner transport.Handler, p float64, seed int64, node int) *dropShim {
	return &dropShim{inner: inner, p: p, salt: splitmix64(uint64(seed)<<8 ^ uint64(node))}
}

func (s *dropShim) Start(env transport.Env) { s.inner.Start(env) }

func (s *dropShim) Recv(from transport.Addr, data []byte) {
	typ := wireType(data)
	retrans := 0
	if typ != 0 && wireFlags(data)&wire.FlagRetransmission != 0 {
		retrans = 1
	}
	if !s.armed.Load() {
		s.inner.Recv(from, data)
		return
	}
	s.in[typ][retrans]++
	if typ == wire.TypeData && retrans == 0 && unit(splitmix64(s.salt^wireSeq(data))) < s.p {
		return
	}
	s.passed[typ][retrans]++
	s.inner.Recv(from, data)
}

// recording keeps copies of the datagrams one node saw, plus the order of
// sequence events its receiver acted on, for the stage-alone replays.
type recording struct {
	limit  int
	dgrams [][]byte
	events []seqEvent
}

// seqEvent is one step of a receiver's sequence bookkeeping: a data or
// repair arrival, a heartbeat, or an abandoned range reported by OnLost.
type seqEvent struct {
	kind     uint8
	from, to uint64
}

const (
	evData uint8 = iota
	evHeartbeat
	evLost
)

func newRecording(limit int) *recording { return &recording{limit: limit} }

func (r *recording) datagram(data []byte) {
	if len(r.dgrams) >= r.limit {
		return
	}
	r.dgrams = append(r.dgrams, append([]byte(nil), data...))
	switch wireType(data) {
	case wire.TypeData, wire.TypeRetrans:
		r.events = append(r.events, seqEvent{kind: evData, from: wireSeq(data)})
	case wire.TypeHeartbeat:
		r.events = append(r.events, seqEvent{kind: evHeartbeat, from: wireSeq(data)})
	}
}

func (r *recording) lost(rg wire.SeqRange) {
	if len(r.dgrams) >= r.limit {
		return
	}
	r.events = append(r.events, seqEvent{kind: evLost, from: rg.From, to: rg.To})
}
