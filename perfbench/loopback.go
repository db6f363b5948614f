package main

import (
	"fmt"
	"time"

	"lbrm/internal/obs"
	"lbrm/internal/wire"
)

// setupReps is how many times a run builds the loopback pipeline to time
// set-up; the last build carries the timed window.
const setupReps = 31

// recordLimit caps the datagrams recorded per node for the replays.
const recordLimit = 1 << 16

// passResult is what one pass over a loopback pipeline produced.
type passResult struct {
	p      *pipeline
	win    window
	rx     []*rxState
	stats  protoStats
	obsEnd obs.Snapshot // after the drain
}

// runPass measures one timed window on p, drains
// and runs the live correctness checks. The pipeline is closed on return.
func runPass(rep *report, p *pipeline, seconds int) *passResult {
	defer p.close()
	res := &passResult{p: p}
	res.win = p.measure(seconds)
	if !p.drain(res.win.lastSeq) {
		rep.notef("drain timed out after %v; undelivered pairs count as failed", drainTimeout)
	}
	for _, err := range p.check() {
		rep.fail(err)
	}
	res.stats = p.protoStats()
	res.obsEnd = p.obsSnapshot()
	for _, r := range p.rx {
		res.rx = append(res.rx, r.state)
	}
	return res
}

// runLoopback runs the steady or lossy workload.
func runLoopback(rep *report, w workload, seed int64, seconds int, traced bool) error {
	var setups []float64
	var p *pipeline
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		if p, err = newPipeline(w, seed, seconds, i, false); err != nil {
			return err
		}
		if err := p.warmUp(); err != nil {
			p.close()
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupReps-1 {
			p.close()
		}
	}
	base := runPass(rep, p, seconds)
	e := loopbackEndToEnd(rep, base, setups)
	if !traced {
		return nil
	}

	tp, err := newPipeline(w, seed, seconds, setupReps, true)
	if err != nil {
		return err
	}
	if err := tp.warmUp(); err != nil {
		tp.close()
		return err
	}
	tr := runPass(rep, tp, seconds)
	rxRec, secRec := tp.rx[0].tr.rec, tp.secondary.tr.rec
	rp := replayAll(rep, rxRec, secRec)
	rxNS, err := ingressFlood(rxRec.dgrams)
	if err != nil {
		return fmt.Errorf("ingress flood: %w", err)
	}
	loopbackLayers(rep, base, tr, e, rp, rxNS)
	return nil
}

// e2eSummary carries the untraced figures the per-layer report reuses.
type e2eSummary struct {
	deliveries int64
	cpuPerDel  float64 // whole-window CPU ns per delivered
}

// outcome is the window's delivery and recovery accounting.
type outcome struct {
	firstLat          latHist // first transmissions of window packets
	recLat            []int64 // recoveries of window packets
	attempted, failed int64   // (packet, receiver) pairs
	refused           int64   // pairs of refused sends, part of failed
	lostReported      uint64
}

// windowOutcome counts the (packet, receiver) pairs of the window's sends
// [first, last] and collects their recoveries. A refused send fails once
// per receiver, and so does a window packet a receiver never delivered.
// The caller fills firstLat.
func windowOutcome(first, last uint64, sends sendCount, rx []*rxState) outcome {
	var o outcome
	for _, r := range rx {
		o.recLat = append(o.recLat, r.recovered...)
		if last >= first {
			o.failed += int64(last-first+1) - r.deliveredIn(first, last)
		}
		o.lostReported += r.lost
	}
	n := int64(len(rx))
	o.attempted = sends.attempts * n
	o.refused = sends.refused * n
	o.failed += o.refused
	return o
}

// addOutcome reports the latency and failure figures of an outcome and
// counts its pairs in the JSON result. The result's failed holds only the
// refused sends' pairs, so it is 0 on a healthy run: which pairs the
// protocol abandons on loopback depends on scheduling, so the same seed
// does not repeat that count. Abandonment is reported in failed_ratio,
// on every workload.
func addOutcome(rep *report, o *outcome, clock string) {
	rep.addE2E("deliver_p50_us", "us", o.firstLat.quantile(0.5)/1e3, int64(o.firstLat.n), clock+"; first transmissions of window packets")
	rep.addE2E("deliver_p99_us", "us", o.firstLat.quantile(0.99)/1e3, int64(o.firstLat.n), "")
	rq := int64Quantiles(o.recLat, 0.5, 0.99)
	rep.addE2E("recover_p50_ms", "ms", rq[0]/1e6, int64(len(o.recLat)), clock+"; Event.Retransmitted deliveries of window packets")
	rep.addE2E("recover_p99_ms", "ms", rq[1]/1e6, int64(len(o.recLat)), "")
	rep.addE2E("failed_ratio", "ratio", ratio(float64(o.failed), float64(o.attempted)), o.attempted,
		fmt.Sprintf("%d failed pairs (%d seqs reported by OnLost)", o.failed, o.lostReported))
	rep.attempted += o.attempted
	rep.failed += o.refused
}

func loopbackEndToEnd(rep *report, res *passResult, setups []float64) e2eSummary {
	win, p := res.win, res.p
	var pps, cpu []float64
	var total, totalCPU int64
	for _, s := range win.slices {
		pps = append(pps, float64(s.delivered)/(float64(s.to-s.from)/1e9))
		cpu = append(cpu, ratio(float64(s.cpuNS), float64(s.delivered)))
		total += s.delivered
		totalCPU += s.cpuNS
	}
	nSlices := len(win.slices)
	rep.addE2E("setup_s", "s", median(setups), int64(len(setups)), "median of set-ups (bind nodes → every receiver delivered)")
	rep.addE2E("delivered_pps", "pkt/s", median(pps), total, fmt.Sprintf("median of %d one-second slices", nSlices))
	rep.addE2E("cpu_ns_per_delivered", "ns", median(cpu), total, fmt.Sprintf("getrusage user+sys; median of %d slices", nSlices))
	rep.addE2E("max_rss_mb", "MB", float64(readUsage().rssKB)/1024, 0, "getrusage peak RSS")
	o := windowOutcome(win.firstSeq, win.lastSeq, p.sends, res.rx)
	for _, r := range res.rx {
		o.firstLat.merge(r.firstLat)
	}
	addOutcome(rep, &o, "wall clock")
	rep.notef("whole window: %d deliveries in %.3fs, %.1f ns CPU/delivered",
		total, float64(win.end-win.start)/1e9, ratio(float64(totalCPU), float64(total)))
	rep.notef("receiver bookkeeping (seq bitsets, recoveries, latency histograms): %.2f MB of max_rss_mb", bookkeepingMB(res.rx, len(res.rx)))
	return e2eSummary{deliveries: total, cpuPerDel: ratio(float64(totalCPU), float64(total))}
}

func (p *pipeline) protoStats() protoStats {
	var s protoStats
	for _, r := range p.rx {
		r.node.Do(func() { s.addReceiver(r.rcv.Stats()) })
	}
	p.secondary.node.Do(func() {
		s.secNacksUp = p.sec.Stats().NacksToPrimary
		if tr := p.secondary.tr; tr != nil {
			s.secTypeData = uint64(tr.acc[kRecv][wire.TypeData].n)
		}
	})
	p.primary.node.Do(func() { s.retransServed = p.prim.Stats().RetransServed })
	p.sender.node.Do(func() { s.secExpected = p.snd.LastSeq() })
	return s
}

func loopbackLayers(rep *report, base, tr *passResult, e e2eSummary, rp replayResult, rxNS float64) {
	bw, tw := base.win, tr.win
	bp, tp := base.p, tr.p

	// Counts and ratios come from the untraced pass: tracing does not
	// change them, and the runtime figures must not include the tracer.
	late := int64Quantiles(bp.late, 0.99)
	rep.addLayer("gen.late_p99_us", "us", late[0]/1e3, int64(len(bp.late)), "send instant minus due time")
	rep.addLayer("sender.refused", "count", float64(bp.sends.refused), 0, "ErrRetainLimit")
	rep.addLayer("sender.retained_max", "count", float64(bp.retainedMax), 0, "")
	rep.addLayer("udp.tx_per_syscall", "dgram/call", histMean(bw.obs0, bw.obs1, "udp.tx_batch"), 0, "all nodes, udp.tx_batch")
	rep.addLayer("udp.rx_per_syscall", "dgram/call", histMean(bw.obs0, bw.obs1, "udp.rx_batch"), 0, "all nodes, udp.rx_batch")
	txPkts := bw.obs1.Counters["udp.tx_pkts"] - bw.obs0.Counters["udp.tx_pkts"]
	gso := bw.obs1.Counters["udp.tx_gso_segs"] - bw.obs0.Counters["udp.tx_gso_segs"]
	rep.addLayer("udp.gso_share", "ratio", ratio(float64(gso), float64(txPkts)), int64(txPkts), "datagrams sent inside a UDP_SEGMENT super-message")
	addRecoveryLayers(rep, base.stats)
	addServeRatio(rep, recoveryPaths(base.obsEnd))
	addRuntimeLayers(rep, bw.rt0, bw.rt1, e.deliveries)
	rep.addLayer("sim.events_per_s", "1/s", 0, 0, "n/a: loopback")
	rep.addLayer("sim.engine_ns_per_event", "ns", 0, 0, "n/a: loopback")

	// Times come from the traced pass, over its timed window.
	var D int64
	for _, s := range tw.slices {
		D += s.delivered
	}
	var r roles
	for i := range tw.spans1 { // sender, secondary, primary, receivers...
		d := tw.spans1[i].sub(&tw.spans0[i])
		r[min(i, roleReceiver)].addAll(&d)
	}
	addSpanLayers(rep, &r, D, tr.stats, "")
	rep.addLayer("recv.timer_ns", "ns", perDelivered(r[roleReceiver].total(kTimer), D), r[roleReceiver].total(kTimer).n, "receiver timer callbacks")
	rep.addLayer("udp.lock_wait_ns", "ns", ratio(float64(tp.doWait.ns), float64(tp.doWait.n)), tp.doWait.n, "per generator Node.Do: wait for the node mutex")
	rep.addLayer("udp.flush_ns", "ns", ratio(float64(tp.doFlush.ns), float64(tp.doFlush.n)), tp.doFlush.n, "per generator Node.Do: egress flush after fn")
	rep.notef("generator Node.Do split per call over %d calls: lock wait %.0f ns, fn %.0f ns, flush %.0f ns",
		tp.doFn.n, ratio(float64(tp.doWait.ns), float64(tp.doWait.n)), ratio(float64(tp.doFn.ns), float64(tp.doFn.n)),
		ratio(float64(tp.doFlush.ns), float64(tp.doFlush.n)))
	transit := transitSamples(tp, tw)
	tq := int64Quantiles(transit, 0.5)
	rep.addLayer("udp.transit_p50_us", "us", tq[0]/1e3, int64(len(transit)), "sender Do return → receiver Recv entry")
	rep.addLayer("udp.rx_ns", "ns", rxNS, 0, "stage alone: CPU per datagram through recvmmsg dispatch")
	rp.add(rep)

	// The layer budget: every span's self time per delivered packet,
	// plus the stage-alone ingress cost, against the traced pass's CPU.
	rxDg := tw.obs1.Counters["udp.rx_pkts"] - tw.obs0.Counters["udp.rx_pkts"]
	var cpu int64
	for _, s := range tw.slices {
		cpu += s.cpuNS
	}
	snd := &r[roleSender]
	rows := []budgetRow{
		row("generator (benchmark)", snd.total(kGen), D, ""),
		row("core Sender.Send", snd.total(kSend), D, ""),
		row("transport/udp egress enqueue", sumKinds(&r, kEnvSend, kEnvMcast), D, "Env.Send/Multicast, all nodes"),
		row("transport/udp generator flush", tp.doFlushCPU, D, "sendmmsg after the generator's fn: thread CPU, including loopback delivery"),
	}
	rows = append(rows, handlerRows(&r, D)...)
	rows = append(rows,
		row("logger Primary timers", r[rolePrimary].total(kTimer), D, ""),
		row("logger Secondary timers", r[roleSecondary].total(kTimer), D, ""),
		row("core Receiver timers", r[roleReceiver].total(kTimer), D, "NACK/retry/staleness"),
		budgetRow{layer: "transport/udp ingress (stage alone)", calls: int64(rxDg), perCallNS: rxNS,
			perDelNS: rxNS * ratio(float64(rxDg), float64(D)), note: "udp.rx_ns × datagrams received per delivered"},
	)
	closeBudget(rep, rows, ratio(float64(cpu), float64(D)), e.cpuPerDel, D,
		"work in no span: read-loop wake-ups (netpoll, scheduler, recvmmsg calls returning a datagram or two), GC, handler-side flushes")
}

// transitSamples pairs the generator's Do-return instant with each
// receiver's Recv entry for every window packet.
func transitSamples(p *pipeline, w window) []int64 {
	var out []int64
	for _, r := range p.rx {
		for s := w.firstSeq; s <= w.lastSeq && s < uint64(len(p.flushEnd)); s++ {
			if f, rx := p.flushEnd[s], r.tr.firstRx[s]; f > 0 && rx > 0 {
				out = append(out, rx-f)
			}
		}
	}
	return out
}
