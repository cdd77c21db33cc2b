// Package gage's root benchmark suite regenerates every table and figure of
// the paper's evaluation (§4). Each benchmark attaches the experiment's
// headline numbers as custom metrics, so `go test -bench . -benchmem`
// doubles as the reproduction record (see EXPERIMENTS.md).
package gage_test

import (
	"testing"
	"time"

	"gage/internal/benchkit"
	"gage/internal/cluster"
	"gage/internal/core"
	"gage/internal/netsim"
	"gage/internal/qos"
	"gage/internal/splice"
)

// BenchmarkTable1 regenerates Table 1: QoS guarantee under excessive input
// loads. Metrics: served GRPS per site, site3's drop rate, and the simulated
// requests delivered — the per-request divisor `make profile-sim` reads.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := cluster.Table1()
		if err != nil {
			b.Fatal(err)
		}
		s1, _ := res.Row("site1")
		s2, _ := res.Row("site2")
		s3, _ := res.Row("site3")
		b.ReportMetric(s1.Served, "site1-grps")
		b.ReportMetric(s2.Served, "site2-grps")
		b.ReportMetric(s3.Served, "site3-grps")
		b.ReportMetric(s3.Dropped, "site3-dropped")
		b.ReportMetric(float64(res.DeliveredReqs), "delivered")
	}
}

// BenchmarkTable2 regenerates Table 2: spare resource allocation. Metric:
// the ratio of the two sites' spare shares (paper: ≈ 250/200 = 1.25).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := cluster.Table2()
		if err != nil {
			b.Fatal(err)
		}
		s1, _ := res.Row("site1")
		s2, _ := res.Row("site2")
		b.ReportMetric(s1.Served, "site1-grps")
		b.ReportMetric(s2.Served, "site2-grps")
		b.ReportMetric((s1.Served-250)/(s2.Served-200), "spare-ratio")
	}
}

// BenchmarkFigure3 regenerates Figure 3's sweep over accounting cycles.
// Metrics: deviation (%) at the 1 s averaging interval per cycle, including
// the paper's headline ≥100 % point at the 2 s cycle.
func BenchmarkFigure3(b *testing.B) {
	cycles := cluster.Figure3Cycles()
	intervals := []time.Duration{time.Second, 4 * time.Second}
	for i := 0; i < b.N; i++ {
		pts, err := cluster.Figure3(cycles, intervals, false)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			if p.Interval == time.Second {
				b.ReportMetric(p.Deviation*100, "dev%@1s/"+p.AcctCycle.String())
			}
		}
	}
}

// BenchmarkFigure3Realistic regenerates Figure 3's SPECweb99-like variant.
// Metric: deviation (%) at a 4 s interval with a 100 ms cycle (paper: <5 %).
func BenchmarkFigure3Realistic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := cluster.Figure3(
			[]time.Duration{100 * time.Millisecond},
			[]time.Duration{4 * time.Second}, true)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[0].Deviation*100, "dev%@4s")
	}
}

// BenchmarkTable3ConnectionSetupRDN measures the RDN's first-leg handshake
// emulation (paper: 29.3 µs on a PIII-450).
func BenchmarkTable3ConnectionSetupRDN(b *testing.B) {
	sc, err := benchkit.NewScenario()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.RDN.Receive(sc.SYNPacket(i))
		if i%4096 == 4095 {
			b.StopTimer()
			sc.DrainIfNeeded()
			b.StartTimer()
		}
	}
}

// BenchmarkTable3ConnectionSetupRPN measures the LSM's second-leg setup:
// control-message handling plus the synthesized local handshake and URL
// injection (paper: 27.2 µs).
func BenchmarkTable3ConnectionSetupRPN(b *testing.B) {
	sc, err := benchkit.NewScenario()
	if err != nil {
		b.Fatal(err)
	}
	sc.Mute = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		pending, err := sc.Establish(i)
		if err != nil {
			b.Fatal(err)
		}
		if err := sc.Engine.Drain(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := sc.RDN.Dispatch(pending, 100); err != nil {
			b.Fatal(err)
		}
		for sc.Engine.Len() > 0 {
			sc.Engine.Step()
		}
	}
}

// BenchmarkTable3Classification measures URL-packet classification: HTTP
// head parse plus host→subscriber lookup (paper: 3.0 µs).
func BenchmarkTable3Classification(b *testing.B) {
	sc, err := benchkit.NewScenario()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sc.ClassifyOnce(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3Forwarding measures bridging one post-dispatch client
// packet through the connection table (paper: 7.0 µs).
func BenchmarkTable3Forwarding(b *testing.B) {
	sc, err := benchkit.NewScenario()
	if err != nil {
		b.Fatal(err)
	}
	pkt, err := sc.PrepareForwarding()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.RDN.Receive(pkt)
		if i%4096 == 4095 {
			b.StopTimer()
			sc.DrainIfNeeded()
			b.StartTimer()
		}
	}
}

// BenchmarkTable3RemapIncoming measures the per-packet inbound rewrite
// (paper: 1.3 µs).
func BenchmarkTable3RemapIncoming(b *testing.B) {
	pkt := netsim.Packet{DstIP: netsim.IPAddr{10, 0, 0, 1}, Flags: netsim.ACK, Ack: 100}
	rpnIP := netsim.IPAddr{10, 0, 1, 1}
	for i := 0; i < b.N; i++ {
		splice.RemapInbound(&pkt, rpnIP, 12345)
		benchkit.Sink += pkt.Ack
	}
}

// BenchmarkTable3RemapOutgoing measures the per-packet outbound rewrite
// (paper: 4.6 µs).
func BenchmarkTable3RemapOutgoing(b *testing.B) {
	pkt := netsim.Packet{SrcIP: netsim.IPAddr{10, 0, 1, 1}, Seq: 100}
	clusterIP := netsim.IPAddr{10, 0, 0, 1}
	for i := 0; i < b.N; i++ {
		splice.RemapOutbound(&pkt, clusterIP, 100, 1000, 12345)
		benchkit.Sink += pkt.Seq
	}
}

// BenchmarkOverheadPerRequest measures §4.2's per-request QoS overhead on
// an RPN — one second-leg setup plus five data-ACK packet pairs through the
// remapper (paper: 56.7 µs, i.e. ≤3.06 % of one RPN's CPU at 540 req/s).
func BenchmarkOverheadPerRequest(b *testing.B) {
	sc, err := benchkit.NewScenario()
	if err != nil {
		b.Fatal(err)
	}
	sc.Mute = true
	inPkt := netsim.Packet{DstIP: netsim.IPAddr{10, 0, 0, 1}, Flags: netsim.ACK, Ack: 100}
	outPkt := netsim.Packet{SrcIP: netsim.IPAddr{10, 0, 1, 1}, Seq: 100}
	rpnIP := netsim.IPAddr{10, 0, 1, 1}
	clusterIP := netsim.IPAddr{10, 0, 0, 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		pending, err := sc.Establish(i)
		if err != nil {
			b.Fatal(err)
		}
		if err := sc.Engine.Drain(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := sc.RDN.Dispatch(pending, 100); err != nil {
			b.Fatal(err)
		}
		for sc.Engine.Len() > 0 {
			sc.Engine.Step()
		}
		for p := 0; p < 5; p++ {
			splice.RemapInbound(&inPkt, rpnIP, 12345)
			benchkit.Sink += inPkt.Ack
			splice.RemapOutbound(&outPkt, clusterIP, 100, 1000, 12345)
			benchkit.Sink += outPkt.Seq
		}
	}
}

// BenchmarkScalability regenerates §4.3's throughput study. Metrics:
// requests/sec with Gage at 8 RPNs and the QoS penalty vs no-Gage (paper:
// 4800 req/s, ≈1.8 % penalty).
func BenchmarkScalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := cluster.Scalability(8)
		if err != nil {
			b.Fatal(err)
		}
		last := pts[len(pts)-1]
		b.ReportMetric(last.WithGage, "req/s@8rpn")
		b.ReportMetric((1-last.WithGage/last.WithoutGage)*100, "penalty%")
		b.ReportMetric(last.WithGage/pts[0].WithGage, "speedup@8rpn")
	}
}

// BenchmarkRDNUtilization regenerates §4.3's front-end saturation curve.
// Metrics: RDN CPU utilization at 4000 and 4800 req/s (paper: near-linear
// to ≈4400, exponential to saturation at ≈4800).
func BenchmarkRDNUtilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := cluster.RDNUtilizationCurve([]float64{4000, 4800})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[0].RDNUtilization*100, "util%@4000")
		b.ReportMetric(pts[1].RDNUtilization*100, "util%@4800")
	}
}

// BenchmarkSchedulerTick measures one scheduling cycle of the core
// scheduler with 100 subscribers and 8 nodes under steady load — the
// operation the RDN performs every 10 ms.
func BenchmarkSchedulerTick(b *testing.B) {
	subs := make([]qos.Subscriber, 100)
	for i := range subs {
		subs[i] = qos.Subscriber{
			ID:          qos.SubscriberID(string(rune('a'+i/26)) + string(rune('a'+i%26))),
			Reservation: 10,
		}
	}
	dir, err := qos.NewDirectory(subs)
	if err != nil {
		b.Fatal(err)
	}
	nodes := make([]core.NodeConfig, 8)
	for i := range nodes {
		nodes[i] = core.NodeConfig{
			ID:       core.NodeID(i + 1),
			Capacity: qos.Vector{CPUTime: time.Second, DiskTime: time.Second, NetBytes: 12_500_000},
		}
	}
	sched, err := core.New(dir, nodes, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	var id uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < 10; j++ {
			id++
			// Steady trickle across subscribers; drops are irrelevant here.
			_ = sched.Enqueue(core.Request{ID: id, Subscriber: subs[int(id)%len(subs)].ID})
		}
		b.StartTimer()
		dispatches := sched.Tick()
		b.StopTimer()
		// Complete everything so queues do not grow unboundedly.
		reps := make(map[core.NodeID]*core.UsageReport)
		for _, d := range dispatches {
			rep, ok := reps[d.Node]
			if !ok {
				rep = &core.UsageReport{Node: d.Node, BySubscriber: map[qos.SubscriberID]core.SubscriberUsage{}}
				reps[d.Node] = rep
			}
			u := rep.BySubscriber[d.Req.Subscriber]
			u.Usage = u.Usage.Add(qos.GenericCost())
			u.Completed++
			rep.BySubscriber[d.Req.Subscriber] = u
			rep.Total = rep.Total.Add(qos.GenericCost())
		}
		for _, rep := range reps {
			if err := sched.ReportUsage(*rep); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
	}
}

// BenchmarkEnqueue measures admission into a subscriber queue.
func BenchmarkEnqueue(b *testing.B) {
	dir, err := qos.NewDirectory([]qos.Subscriber{
		{ID: "a", Reservation: 100, QueueLimit: 1 << 30},
	})
	if err != nil {
		b.Fatal(err)
	}
	sched, err := core.New(dir,
		[]core.NodeConfig{{ID: 1, Capacity: qos.Vector{CPUTime: time.Second, DiskTime: time.Second, NetBytes: 1 << 30}}},
		core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sched.Enqueue(core.Request{ID: uint64(i), Subscriber: "a"}); err != nil {
			b.Fatal(err)
		}
	}
}
