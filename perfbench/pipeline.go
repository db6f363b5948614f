package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"time"

	"lbrm"
	"lbrm/internal/core"
	"lbrm/internal/obs"
	"lbrm/internal/transport"
	"lbrm/internal/transport/udp"
	"lbrm/internal/wire"
)

// The loopback pipeline: one sender, a primary, a secondary and N
// receivers, each on its own udp.Node in this process, talking over IP
// multicast on the loopback interface. Every node binds 127.0.0.1, which
// routes its multicast out of lo (so nothing leaves the host), and every
// handler and node shares one obs.Sink per node, as a daemon started with
// -metrics-addr does.

const (
	group  = wire.GroupID(1)
	source = wire.SourceID(1)
	// mcastPort is the group port; each pipeline gets its own group
	// address, so consecutive set-ups never hear each other.
	mcastPort = 17911
	// frame is the generator's emission period: the finest it can hold,
	// given Go timer overshoot of about half a millisecond.
	frame = time.Millisecond
	// drainTimeout bounds the wait for receivers to deliver or abandon
	// every sequence number after the timed window: the receiver's full
	// escalation chain (three site requests, three primary requests, a
	// source query and three more) takes about 7 s at default timeouts.
	drainTimeout = 12 * time.Second
)

var streamKey = lbrm.StreamKey{Source: source, Group: group}

// lbNode is one protocol node bound to UDP.
type lbNode struct {
	node *udp.Node
	sink *obs.Sink
	tr   *tracer   // traced run only
	shim *dropShim // lossy receivers and secondary only
	stop func()
}

// rxNode couples a receiver node with its application state.
type rxNode struct {
	*lbNode
	rcv   *lbrm.Receiver
	state *rxState
}

// pipeline is one running loopback deployment.
type pipeline struct {
	w      workload
	seed   int64
	traced bool
	groups map[wire.GroupID]string
	maxSeq int

	primary, secondary, sender *lbNode
	prim                       *lbrm.PrimaryLogger
	sec                        *lbrm.SecondaryLogger
	snd                        *lbrm.Sender
	rx                         []*rxNode

	// Generator state, touched only by the generator goroutine (and by
	// the closures it runs inside the sender's Node.Do).
	gen             *payloadGen
	sends           sendCount
	retainedMax     int
	late            []int64 // window sends: send instant minus due time
	doWait, doFlush acc     // traced: Node.Do split around the generator's fn
	doFn            acc
	doFlushCPU      acc     // traced: the flush's CPU on the generator's locked thread
	flushEnd        []int64 // traced: Do return instant, by seq
	batchSeqs       []uint64
}

// newPipeline binds every node and starts the handlers. iter picks the
// multicast group address. A traced pipeline times every layer and
// records one receiver's and the secondary's datagrams for the replays.
func newPipeline(w workload, seed int64, seconds, iter int, traced bool) (*pipeline, error) {
	p := &pipeline{
		w: w, seed: seed, traced: traced,
		groups: map[wire.GroupID]string{
			group: fmt.Sprintf("239.77.%d.%d:%d", os.Getpid()%250, iter%250+1, mcastPort),
		},
		maxSeq: w.rate*(seconds+5) + 4096,
		gen:    newPayloadGen(seed, w.minSize, w.maxSize),
	}
	if traced {
		p.flushEnd = make([]int64, p.maxSeq)
	}
	ok := false
	defer func() {
		if !ok {
			p.close()
		}
	}()

	var err error
	sink := obs.NewSink()
	p.prim = lbrm.NewPrimaryLogger(lbrm.PrimaryConfig{Group: group, Obs: sink})
	if p.primary, err = p.start(p.prim, p.prim.Stop, sink, 0, 0, p.newTracer(false, nil)); err != nil {
		return nil, fmt.Errorf("primary: %w", err)
	}
	primAddr := p.primary.node.Addr()

	var secRec *recording
	if traced {
		secRec = newRecording(recordLimit)
	}
	sink = obs.NewSink()
	p.sec = lbrm.NewSecondaryLogger(lbrm.SecondaryConfig{Group: group, Primary: primAddr, Obs: sink})
	if p.secondary, err = p.start(p.sec, p.sec.Stop, sink, 1, w.secDrop, p.newTracer(false, secRec)); err != nil {
		return nil, fmt.Errorf("secondary: %w", err)
	}
	secAddr := p.secondary.node.Addr()

	for i := 0; i < w.receivers; i++ {
		var rxRec *recording
		if traced && i == 0 {
			rxRec = newRecording(recordLimit)
		}
		st := newRxState(mono, &latHist{})
		st.tr = p.newTracer(true, rxRec)
		sink := obs.NewSink()
		rcv := lbrm.NewReceiver(lbrm.ReceiverConfig{
			Group: group, Secondary: secAddr, Primary: primAddr,
			OnData: st.onData, OnLost: st.onLost, Obs: sink,
		})
		n, err := p.start(rcv, rcv.Stop, sink, 3+i, w.rxDrop, st.tr)
		if err != nil {
			return nil, fmt.Errorf("receiver %d: %w", i, err)
		}
		p.rx = append(p.rx, &rxNode{lbNode: n, rcv: rcv, state: st})
	}

	sink = obs.NewSink()
	if p.snd, err = lbrm.NewSender(lbrm.SenderConfig{Source: source, Group: group, Primary: primAddr, Obs: sink}); err != nil {
		return nil, err
	}
	if p.sender, err = p.start(p.snd, p.snd.Stop, sink, 2, 0, p.newTracer(false, nil)); err != nil {
		return nil, fmt.Errorf("sender: %w", err)
	}
	ok = true
	return p, nil
}

// newTracer returns a node's tracer in a traced pipeline (nil otherwise);
// receivers also stamp first arrivals for transit.
func (p *pipeline) newTracer(receiver bool, rec *recording) *tracer {
	if !p.traced {
		return nil
	}
	maxSeq := 0
	if receiver {
		maxSeq = p.maxSeq
	}
	return newTracer(maxSeq, rec)
}

// start binds one node. idx seeds the node's random source and its drop
// shim.
func (p *pipeline) start(h transport.Handler, stop func(), sink *obs.Sink, idx int, drop float64, tr *tracer) (*lbNode, error) {
	n := &lbNode{sink: sink, stop: stop, tr: tr}
	if tr != nil {
		h = &tracedHandler{inner: h, tr: tr}
	}
	if drop > 0 {
		n.shim = newDropShim(h, drop, p.seed, idx)
		h = n.shim
	}
	node, err := udp.Start(udp.Config{
		Listen: "127.0.0.1:0", Groups: p.groups, Interface: "lo",
		Seed: p.seed*64 + int64(idx) + 1, Obs: sink,
	}, h)
	if err != nil {
		return nil, err
	}
	n.node = node
	return n, nil
}

// nodes lists every node, sender first.
func (p *pipeline) nodes() []*lbNode {
	var out []*lbNode
	for _, n := range []*lbNode{p.sender, p.secondary, p.primary} {
		if n != nil {
			out = append(out, n)
		}
	}
	for _, r := range p.rx {
		out = append(out, r.lbNode)
	}
	return out
}

// close stops every handler and closes every node, sender first.
func (p *pipeline) close() {
	for _, n := range p.nodes() {
		n.node.Do(n.stop)
		_ = n.node.Close() // teardown: nothing left to report to
	}
}

// warmUp sends a packet and waits for every receiver's first delivery,
// resending every few milliseconds. It absorbs the multicast join race:
// the first datagrams after a join may not reach the new member.
func (p *pipeline) warmUp() error {
	deadline := time.Now().Add(10 * time.Second)
	for _, r := range p.rx {
		for r.state.count.Load() == 0 {
			if time.Now().After(deadline) {
				return errors.New("warm-up: a receiver delivered nothing within 10s")
			}
			p.sendBatch(1, mono(), false)
			select {
			case <-r.state.first:
			case <-time.After(5 * time.Millisecond):
			}
		}
	}
	return nil
}

// sendBatch sends n packets inside one Node.Do, stamping each immediately
// before Sender.Send. due is their scheduled send instant.
func (p *pipeline) sendBatch(n int, due int64, window bool) {
	tr := p.sender.tr
	p.batchSeqs = p.batchSeqs[:0]
	var tFn0, tFn1, cpuFn1 int64
	tCall := mono()
	p.sender.node.Do(func() {
		tFn0 = mono()
		var sendNS int64
		for i := 0; i < n; i++ {
			seq := p.snd.LastSeq() + 1
			stamp := mono()
			pl := p.gen.next(seq, stamp)
			var got uint64
			var err error
			if tr != nil {
				tr.child = 0
				t0 := mono()
				got, err = p.snd.Send(pl)
				d := mono() - t0
				tr.acc[kSend][0].add(d - tr.child)
				sendNS += d
			} else {
				got, err = p.snd.Send(pl)
			}
			if !p.sends.note(seq, got, err, window) {
				continue
			}
			if window {
				p.late = append(p.late, stamp-due)
			}
			if r := p.snd.Retained(); r > p.retainedMax {
				p.retainedMax = r
			}
			p.batchSeqs = append(p.batchSeqs, got)
		}
		tFn1 = mono()
		if tr != nil {
			tr.acc[kGen][0].add(tFn1 - tFn0 - sendNS)
			cpuFn1 = threadCPU()
		}
	})
	if tr != nil && window {
		tRet := mono()
		p.doWait.add(tFn0 - tCall)
		p.doFn.add(tFn1 - tFn0)
		p.doFlush.add(tRet - tFn1)
		p.doFlushCPU.add(threadCPU() - cpuFn1)
		for _, s := range p.batchSeqs {
			if s < uint64(len(p.flushEnd)) {
				p.flushEnd[s] = tRet
			}
		}
	}
}

// generate runs the open-loop source at a fixed rate, paced in 1 ms
// frames: each frame's packets (rate × frame) are due at the frame's start
// and go out through one Node.Do. A late wake-up delays a frame; it never
// drops one, so the offered rate holds.
func (p *pipeline) generate(start, end int64) {
	per := p.w.rate * int(frame) / int(time.Second)
	for due := start; due < end; due += int64(frame) {
		sleepUntil(due)
		p.sendBatch(per, due, true)
	}
}

// sendCount classifies the generator's Sender.Send results. attempts and
// refused count the timed window's sends only.
type sendCount struct {
	attempts, refused int64
	accepted          int64 // every accepted send: Stats().DataSent must match
	err               error // the first unexpected result
}

// note records one Send of seq that returned got and err, and reports
// whether the sender accepted the packet.
func (c *sendCount) note(seq, got uint64, err error, window bool) bool {
	if window {
		c.attempts++
	}
	switch {
	case errors.Is(err, core.ErrRetainLimit):
		if window {
			c.refused++
		}
		return false
	case err != nil:
		if c.err == nil {
			c.err = fmt.Errorf("send seq %d: %w", seq, err)
		}
		return false
	case got != seq && c.err == nil:
		c.err = fmt.Errorf("Send returned seq %d, want %d", got, seq)
	}
	c.accepted++
	return true
}

// slice is one second of the timed window.
type slice struct {
	from, to  int64 // mono instants of the usage samples
	cpuNS     int64
	delivered int64 // OnData calls, summed over receivers
}

// window is what the timed window measured.
type window struct {
	start, end     int64
	firstSeq       uint64 // first sequence number sent inside the window
	lastSeq        uint64
	slices         []slice
	u0, u1         usage
	rt0, rt1       rtSample
	obs0, obs1     obs.Snapshot
	spans0, spans1 []spans // traced: per node, in nodes() order
}

// measure runs the generator for seconds and samples CPU once a second.
func (p *pipeline) measure(seconds int) window {
	var w window
	for _, n := range p.nodes() {
		if n.shim != nil {
			n.shim.armed.Store(true)
		}
	}
	runtime.GC()                     // start every window from a collected heap
	w.firstSeq = p.snd.LastSeq() + 1 // the generator has not started: no race
	for _, r := range p.rx {
		r.state.from.Store(w.firstSeq)
	}
	w.start = mono() + int64(5*time.Millisecond)
	w.end = w.start + int64(seconds)*int64(time.Second)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if p.traced {
			// Pinned so the flush's CPU can be read per thread: its wall
			// time also holds the receivers its syscall wakes on loopback.
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
		}
		p.generate(w.start, w.end)
	}()
	sleepUntil(w.start)
	w.u0, w.rt0, w.obs0 = readUsage(), readRuntime(), p.obsSnapshot()
	w.spans0 = p.spanSnapshot()
	prev, prevU, prevD := mono(), w.u0, p.deliveries()
	for i := 1; i <= seconds; i++ {
		sleepUntil(w.start + int64(i)*int64(time.Second))
		now, u, d := mono(), readUsage(), p.deliveries()
		w.slices = append(w.slices, slice{from: prev, to: now, cpuNS: u.cpuNS - prevU.cpuNS, delivered: d - prevD})
		prev, prevU, prevD = now, u, d
	}
	w.u1, w.rt1, w.obs1 = prevU, readRuntime(), p.obsSnapshot()
	w.spans1 = p.spanSnapshot()
	w.end = prev
	wg.Wait()
	w.lastSeq = p.snd.LastSeq() // the generator has returned: no race
	return w
}

// deliveries sums the receivers' OnData calls so far.
func (p *pipeline) deliveries() int64 {
	var n int64
	for _, r := range p.rx {
		n += r.state.count.Load()
	}
	return n
}

func sleepUntil(t int64) {
	if d := t - mono(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// obsSnapshot merges every node's registry.
func (p *pipeline) obsSnapshot() obs.Snapshot {
	var snaps []obs.Snapshot
	for _, n := range p.nodes() {
		snaps = append(snaps, n.sink.Registry().Snapshot())
	}
	return obs.Merge(snaps...)
}

// spanSnapshot copies every node's span table inside the node's
// serialization.
func (p *pipeline) spanSnapshot() []spans {
	if !p.traced {
		return nil
	}
	nodes := p.nodes()
	out := make([]spans, len(nodes))
	for i, n := range nodes {
		n.node.Do(func() { out[i] = n.tr.acc })
	}
	return out
}

// drain waits until every receiver has delivered or abandoned everything
// up to last; it returns false if the deadline passed first.
func (p *pipeline) drain(last uint64) bool {
	deadline := time.Now().Add(drainTimeout)
	for {
		done := true
		for _, r := range p.rx {
			var c uint64
			r.node.Do(func() { c = r.rcv.Contiguous(streamKey) })
			if c < last {
				done = false
				break
			}
		}
		if done {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// check runs the correctness checks that need the live nodes.
func (p *pipeline) check() []error {
	var errs []error
	if p.sends.err != nil {
		errs = append(errs, p.sends.err)
	}
	var dataSent uint64
	p.sender.node.Do(func() { dataSent = p.snd.Stats().DataSent })
	if dataSent != uint64(p.sends.accepted) {
		errs = append(errs, fmt.Errorf("sender: Stats().DataSent = %d, accepted sends = %d", dataSent, p.sends.accepted))
	}
	for i, r := range p.rx {
		var delivered uint64
		r.node.Do(func() { delivered = r.rcv.Stats().DataDelivered })
		if err := r.state.check(fmt.Sprintf("receiver %d", i), delivered); err != nil {
			errs = append(errs, err)
		}
	}
	for _, n := range p.nodes() {
		if n.shim != nil {
			var err error
			n.node.Do(func() { err = n.shim.check() })
			if err != nil {
				errs = append(errs, err)
			}
		}
	}
	return errs
}

// check confirms the shim dropped only first-transmission TypeData and
// at the configured rate (within five binomial standard deviations).
func (s *dropShim) check() error {
	for t := range s.in {
		for r := range s.in[t] {
			if (wire.Type(t) != wire.TypeData || r != 0) && s.in[t][r] != s.passed[t][r] {
				return fmt.Errorf("drop shim dropped %d datagrams of type %v (retransmission flag %d)",
					s.in[t][r]-s.passed[t][r], wire.Type(t), r)
			}
		}
	}
	seen := s.in[wire.TypeData][0]
	if seen == 0 {
		return fmt.Errorf("drop shim saw no first-transmission TypeData while armed")
	}
	dropped := seen - s.passed[wire.TypeData][0]
	want := s.p * float64(seen)
	sigma := math.Sqrt(float64(seen) * s.p * (1 - s.p))
	if math.Abs(float64(dropped)-want) > 5*sigma+1 {
		return fmt.Errorf("drop shim: dropped %d of %d first transmissions, want %.1f ± %.1f", dropped, seen, want, 5*sigma)
	}
	return nil
}

// dropped returns how many first transmissions the shim dropped.
func (s *dropShim) dropped() int64 {
	return s.in[wire.TypeData][0] - s.passed[wire.TypeData][0]
}
