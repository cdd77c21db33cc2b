// Package benchkit prepares the micro-benchmark scenarios behind Table 3 —
// the per-connection and per-packet costs of Gage's splicing path — so the
// root benchmark suite and the gagebench CLI measure exactly the same
// operations: first-leg connection setup at the RDN, second-leg setup at an
// RPN's local service manager, URL-packet classification, connection-table
// forwarding, and inbound/outbound sequence-address remapping.
package benchkit

import (
	"fmt"
	"testing"
	"time"

	"gage/internal/classify"
	"gage/internal/httpwire"
	"gage/internal/netsim"
	"gage/internal/qos"
	"gage/internal/splice"
	"gage/internal/vclock"
)

// Scenario is a prepared splicing micro-benchmark world.
type Scenario struct {
	Engine *vclock.Engine
	Net    *netsim.Network
	RDN    *splice.RDN
	LSM    *splice.LSM

	// URLPayload is a representative HTTP request head.
	URLPayload []byte

	// Mute suppresses the scenario web server's response, so setup-path
	// benchmarks do not time response generation and delivery.
	Mute bool

	classifier classify.Classifier
	last       *splice.PendingRequest
}

// clusterIP and addresses used by the scenario.
var (
	scenClusterIP = netsim.IPAddr{10, 0, 0, 1}
	scenRPNIP     = netsim.IPAddr{10, 0, 1, 1}
	scenClientIP  = netsim.IPAddr{10, 0, 2, 1}
)

// NewScenario builds an RDN and one LSM (with a trivially-responding web
// server) on a fresh zero-latency network.
func NewScenario() (*Scenario, error) {
	engine := vclock.NewEngine(time.Time{})
	netw := netsim.NewNetwork(engine, 0)
	dir, err := qos.NewDirectory([]qos.Subscriber{
		{ID: "site1", Hosts: []string{"www.site1.example"}, Reservation: 100},
		{ID: "site2", Hosts: []string{"www.site2.example"}, Reservation: 100},
	})
	if err != nil {
		return nil, err
	}
	sc := &Scenario{
		Engine:     engine,
		Net:        netw,
		classifier: classify.NewHostClassifier(dir),
	}
	sc.RDN, err = splice.NewRDN(netw, 1, scenClusterIP, sc.classifier, func(pr *splice.PendingRequest) { sc.last = pr })
	if err != nil {
		return nil, err
	}
	sc.LSM, err = splice.NewLSM(netw, 100, scenRPNIP, scenClusterIP)
	if err != nil {
		return nil, err
	}
	err = sc.LSM.Stack().Listen(splice.WebPort, func(c *netsim.Conn) {
		c.OnData = func(conn *netsim.Conn, _ []byte) {
			if sc.Mute {
				return
			}
			conn.Send([]byte("HTTP/1.0 200 OK\r\nContent-Length: 0\r\n\r\n"))
		}
	})
	if err != nil {
		return nil, err
	}
	// A client NIC so response frames resolve and deliver.
	if _, err := netsim.NewStack(netw, 1000, scenClientIP); err != nil {
		return nil, err
	}
	req := &httpwire.Request{Method: "GET", Target: "/index.html", Proto: "HTTP/1.0", Host: "www.site1.example"}
	var buf []byte
	{
		w := &sliceWriter{}
		if err := req.Write(w); err != nil {
			return nil, err
		}
		buf = w.b
	}
	sc.URLPayload = buf
	return sc, nil
}

type sliceWriter struct{ b []byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// SYNPacket returns a first-leg SYN for a distinct client port per i.
func (sc *Scenario) SYNPacket(i int) netsim.Packet {
	return netsim.Packet{
		SrcMAC:  1000,
		DstMAC:  1,
		SrcIP:   scenClientIP,
		DstIP:   scenClusterIP,
		SrcPort: uint16(i%60000) + 1024,
		DstPort: splice.WebPort,
		Seq:     uint32(i),
		Flags:   netsim.SYN,
	}
}

// URLPacket returns the first payload packet matching SYNPacket(i).
func (sc *Scenario) URLPacket(i int) netsim.Packet {
	pkt := sc.SYNPacket(i)
	pkt.Flags = netsim.ACK | netsim.PSH
	pkt.Seq++
	pkt.Payload = sc.URLPayload
	return pkt
}

// Establish drives a first-leg handshake and URL classification through the
// RDN, returning the resulting pending request.
func (sc *Scenario) Establish(i int) (*splice.PendingRequest, error) {
	sc.last = nil
	sc.RDN.Receive(sc.SYNPacket(i))
	sc.RDN.Receive(sc.URLPacket(i))
	if sc.last == nil {
		return nil, fmt.Errorf("benchkit: request %d did not classify", i)
	}
	return sc.last, nil
}

// DrainIfNeeded empties the pending event queue when it grows large; call
// it with the benchmark timer stopped.
func (sc *Scenario) DrainIfNeeded() {
	if sc.Engine.Len() > 8192 {
		// Draining cannot fail while the engine is running.
		_ = sc.Engine.Drain()
	}
}

// ClassifyOnce performs one URL-packet classification: parse the HTTP head
// and resolve the subscriber.
func (sc *Scenario) ClassifyOnce() (qos.SubscriberID, error) {
	req, err := httpwire.ParseRequest(sc.URLPayload)
	if err != nil {
		return "", err
	}
	id, ok := sc.classifier.Classify(req.Host, req.Path())
	if !ok {
		return "", fmt.Errorf("benchkit: unclassified host %q", req.Host)
	}
	return id, nil
}

// OpCost is one measured Table-3 operation.
type OpCost struct {
	// Name matches the paper's Table 3 column.
	Name string
	// Measured is this implementation's cost per operation.
	Measured time.Duration
	// Paper is the cost the paper reports on its 2002 testbed.
	Paper time.Duration
}

// MeasureTable3 runs every Table-3 micro-benchmark via testing.Benchmark
// and returns the measured costs in the paper's column order.
func MeasureTable3() ([]OpCost, error) {
	var out []OpCost
	add := func(name string, paper time.Duration, bench func(b *testing.B)) {
		r := testing.Benchmark(bench)
		out = append(out, OpCost{
			Name:     name,
			Measured: time.Duration(r.NsPerOp()),
			Paper:    paper,
		})
	}

	sc, err := NewScenario()
	if err != nil {
		return nil, err
	}
	add("connection setup (RDN)", 29300*time.Nanosecond, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sc.RDN.Receive(sc.SYNPacket(i))
			if i%4096 == 4095 {
				b.StopTimer()
				sc.DrainIfNeeded()
				b.StartTimer()
			}
		}
	})

	add("connection setup (RPN)", 27200*time.Nanosecond, func(b *testing.B) {
		s2, err := NewScenario()
		if err != nil {
			b.Fatalf("scenario: %v", err)
		}
		s2.Mute = true // time the second-leg setup, not response service
		// Pre-build the first legs and classified requests outside the
		// timer, a batch at a time — toggling the timer every iteration
		// costs ~25× the 2.7 µs operation in wall time; measure the dispatch
		// handling plus the LSM's second-leg synthesis (delivered by
		// stepping the engine).
		const batch = 256
		pending := make([]*splice.PendingRequest, 0, batch)
		for done := 0; done < b.N; done += len(pending) {
			b.StopTimer()
			pending = pending[:0]
			for i := done; i < b.N && len(pending) < batch; i++ {
				p, err := s2.Establish(i)
				if err != nil {
					b.Fatal(err)
				}
				pending = append(pending, p)
			}
			// Drop queued SYNACK deliveries so the timed section below
			// steps only the dispatch-driven events.
			if err := s2.Engine.Drain(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			for _, p := range pending {
				if err := s2.RDN.Dispatch(p, 100); err != nil {
					b.Fatalf("dispatch: %v", err)
				}
				for s2.Engine.Len() > 0 {
					s2.Engine.Step()
				}
			}
		}
	})

	add("packet classification", 3000*time.Nanosecond, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sc.ClassifyOnce(); err != nil {
				b.Fatalf("classify: %v", err)
			}
		}
	})

	fsc, err := NewScenario()
	if err != nil {
		return nil, err
	}
	fwd, err := fsc.PrepareForwarding()
	if err != nil {
		return nil, err
	}
	add("packet forwarding", 7000*time.Nanosecond, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fsc.RDN.Receive(fwd)
			if i%4096 == 4095 {
				b.StopTimer()
				fsc.DrainIfNeeded()
				b.StartTimer()
			}
		}
	})

	add("remapping incoming", 1300*time.Nanosecond, func(b *testing.B) {
		pkt := netsim.Packet{DstIP: scenClusterIP, Flags: netsim.ACK, Ack: 100}
		for i := 0; i < b.N; i++ {
			splice.RemapInbound(&pkt, scenRPNIP, 12345)
			Sink += pkt.Ack
		}
	})

	add("remapping outgoing", 4600*time.Nanosecond, func(b *testing.B) {
		pkt := netsim.Packet{SrcIP: scenRPNIP, Seq: 100}
		for i := 0; i < b.N; i++ {
			splice.RemapOutbound(&pkt, scenClusterIP, 100, 1000, 12345)
			Sink += pkt.Seq
		}
	})
	return out, nil
}

// Sink defeats dead-code elimination in the per-packet micro-benchmarks.
var Sink uint32

// PrepareForwarding sets up one spliced connection and returns a bridged
// client packet whose flow is in the RDN's connection table.
func (sc *Scenario) PrepareForwarding() (netsim.Packet, error) {
	syn := sc.SYNPacket(1)
	pending, err := sc.Establish(1)
	if err != nil {
		return netsim.Packet{}, err
	}
	if err := sc.RDN.Dispatch(pending, 100); err != nil {
		return netsim.Packet{}, err
	}
	if err := sc.Engine.Drain(); err != nil {
		return netsim.Packet{}, err
	}
	return netsim.Packet{
		SrcMAC:  syn.SrcMAC,
		DstMAC:  1,
		SrcIP:   syn.SrcIP,
		DstIP:   syn.DstIP,
		SrcPort: syn.SrcPort,
		DstPort: syn.DstPort,
		Seq:     syn.Seq + uint32(len(sc.URLPayload)) + 1,
		Ack:     1,
		Flags:   netsim.ACK,
	}, nil
}
