package main

import (
	"slices"

	"lbrm"
	"lbrm/internal/obs"
	"lbrm/internal/wire"
)

// Per-layer reporting shared by the loopback and netsim pipelines.

// protoStats sums the protocol handlers' own counters after a pass.
type protoStats struct {
	gaps, nacks, recovered, escalations, abandoned uint64
	secNacksUp, secTypeData                        uint64
	secExpected                                    uint64 // first transmissions every secondary should have seen
	retransServed                                  uint64
}

func (s *protoStats) addReceiver(st lbrm.ReceiverStats) {
	s.gaps += st.GapsDetected
	s.nacks += st.NacksSent
	s.recovered += st.Recovered
	s.escalations += st.Escalations
	s.abandoned += st.RangesAbandoned
}

// roles holds a traced window's span tables summed by role.
type roles [4]spans

const (
	roleSender = iota
	roleSecondary
	rolePrimary
	roleReceiver
)

// dataTypes are the wire types that carry a payload.
var dataTypes = []wire.Type{wire.TypeData, wire.TypeRetrans}

func perDelivered(a acc, deliveries int64) float64 {
	return ratio(float64(a.ns), float64(deliveries))
}

// addSpanLayers reports the handler span metrics both pipelines measure,
// per delivered packet. egress notes what else the send spans hold.
func addSpanLayers(rep *report, r *roles, D int64, s protoStats, egress string) {
	snd, sec, pri, rcv := &r[roleSender], &r[roleSecondary], &r[rolePrimary], &r[roleReceiver]
	layer := func(name string, a acc, note string) {
		rep.addLayer(name, "ns", perDelivered(a, D), a.n, note)
	}
	layer("sender.send_ns", snd.total(kSend), "Sender.Send self time per delivered"+egress)
	layer("sender.recv_ns", snd.total(kRecv), "sender Recv (SourceAcks) per delivered")
	layer("recv.data_ns", rcv.total(kRecv, dataTypes...), "receiver Recv of data/repairs, excluding OnData"+egress)
	layer("secondary.data_ns", sec.total(kRecv, dataTypes...), "")
	layer("secondary.nack_ns", sec.total(kRecv, wire.TypeNack), "")
	layer("primary.data_ns", pri.total(kRecv, dataTypes...), "")
	layer("primary.nack_ns", pri.total(kRecv, wire.TypeNack), "")
	missed := s.secExpected - s.secTypeData
	rep.addLayer("secondary.upstream_nacks_per_loss", "ratio", ratio(float64(s.secNacksUp), float64(missed)), int64(missed),
		"secondary NACKs to the primary per first transmission a secondary missed (traced pass; paper: about 1)")
}

// handlerRows are the layer-budget rows of the handlers' Recv spans and
// the application callback.
func handlerRows(r *roles, D int64) []budgetRow {
	snd, sec, pri, rcv := &r[roleSender], &r[roleSecondary], &r[rolePrimary], &r[roleReceiver]
	return []budgetRow{
		row("core Sender.Recv", snd.total(kRecv), D, "SourceAcks"),
		row("logger Primary.Recv data", pri.total(kRecv, dataTypes...), D, ""),
		row("logger Primary.Recv nack", pri.total(kRecv, wire.TypeNack), D, ""),
		row("logger Primary.Recv other", other(pri, wire.TypeData, wire.TypeRetrans, wire.TypeNack), D, ""),
		row("logger Secondary.Recv data", sec.total(kRecv, dataTypes...), D, ""),
		row("logger Secondary.Recv nack", sec.total(kRecv, wire.TypeNack), D, ""),
		row("logger Secondary.Recv other", other(sec, wire.TypeData, wire.TypeRetrans, wire.TypeNack), D, ""),
		row("core Receiver.Recv data", rcv.total(kRecv, dataTypes...), D, "includes seqtrack"),
		row("core Receiver.Recv other", other(rcv, wire.TypeData, wire.TypeRetrans), D, "heartbeats"),
		row("application OnData (benchmark)", rcv.total(kOnData), D, "payload check + record"),
	}
}

// closeBudget sums the layer rows against the traced CPU per delivered
// packet, states the residual, and reports it with the tracing overhead.
func closeBudget(rep *report, rows []budgetRow, cpuPer, untracedCPUPer float64, D int64, residual string) {
	var sum float64
	for _, r := range rows {
		sum += r.perDelNS
	}
	rep.budget = append(rows,
		budgetRow{layer: "sum of layers", perDelNS: sum},
		budgetRow{layer: "cpu_ns_per_delivered (traced)", perDelNS: cpuPer, calls: D, note: "getrusage over the traced window"},
		budgetRow{layer: "residual", perDelNS: cpuPer - sum, note: residual},
	)
	rep.addLayer("budget.residual_ns_per_delivered", "ns", cpuPer-sum, D, "traced CPU per delivered minus the layer rows")
	rep.addLayer("trace.overhead_ratio", "ratio", ratio(cpuPer, untracedCPUPer), 0, "traced ÷ untraced CPU per delivered")
}

func row(name string, a acc, deliveries int64, note string) budgetRow {
	return budgetRow{layer: name, calls: a.n, perCallNS: ratio(float64(a.ns), float64(a.n)),
		perDelNS: perDelivered(a, deliveries), note: note}
}

func sumKinds(r *roles, kinds ...kind) acc {
	var a acc
	for i := range r {
		for _, k := range kinds {
			t := r[i].total(k)
			a.n += t.n
			a.ns += t.ns
		}
	}
	return a
}

// other is Recv time over every wire type not listed.
func other(s *spans, skip ...wire.Type) acc {
	var a acc
	for t := range s[kRecv] {
		if !slices.Contains(skip, wire.Type(t)) {
			a.n += s[kRecv][t].n
			a.ns += s[kRecv][t].ns
		}
	}
	return a
}

// histMean is the mean sample of a histogram over a window.
func histMean(a, b obs.Snapshot, name string) float64 {
	ha, hb := a.Histograms[name], b.Histograms[name]
	return ratio(float64(hb.Sum-ha.Sum), float64(hb.Total()-ha.Total()))
}

func addRecoveryLayers(rep *report, s protoStats) {
	rep.addLayer("recv.gaps", "count", float64(s.gaps), 0, "GapsDetected, all receivers")
	rep.addLayer("recv.nacks_per_recovered", "ratio", ratio(float64(s.nacks), float64(s.recovered)), int64(s.recovered), "NacksSent ÷ Recovered")
	rep.addLayer("recv.escalation_ratio", "ratio", ratio(float64(s.escalations), float64(s.gaps)), int64(s.gaps), "Escalations ÷ GapsDetected")
	rep.addLayer("recv.abandoned", "count", float64(s.abandoned), 0, "RangesAbandoned, all receivers")
	rep.addLayer("primary.retrans_served", "count", float64(s.retransServed), 0, "")
}

func addRuntimeLayers(rep *report, a, b rtSample, deliveries int64) {
	rep.addLayer("runtime.allocs_per_delivered", "count", ratio(float64(b.allocs-a.allocs), float64(deliveries)), deliveries, "heap objects allocated per delivered (untraced)")
	rep.addLayer("runtime.gc_cpu_fraction", "ratio", ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU), 0, "runtime/metrics GC CPU ÷ total CPU (untraced)")
}

// pathCounts are timed receiver recoveries: served from a logger's own
// log, and over every path.
type pathCounts struct{ local, all uint64 }

// recoveryPaths reads the receivers' per-path recovery histograms.
func recoveryPaths(s obs.Snapshot) pathCounts {
	c := pathCounts{local: s.Histograms["recv.recovery."+wire.PathLocal.MetricName()+"_ms"].Total()}
	for p := wire.PathLocal; p < wire.NumRecoveryPaths; p++ {
		c.all += s.Histograms["recv.recovery."+p.MetricName()+"_ms"].Total()
	}
	return c
}

func addServeRatio(rep *report, c pathCounts) {
	rep.addLayer("secondary.local_serve_ratio", "ratio", ratio(float64(c.local), float64(c.all)), int64(c.all),
		"recoveries served from a logger's own log ÷ all timed recoveries")
}
