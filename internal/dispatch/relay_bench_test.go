package dispatch

import (
	"bufio"
	"net"
	"testing"
	"time"

	"gage/internal/httpwire"
	"gage/internal/qos"
)

// benchmarkRelay is the benchmark's saturation testbed in one process: two
// backends and four subscribers whose capacity and reservations never limit,
// 512-byte pages, clients in parallel. `make profile-relay` runs it with every
// allocation profiled, which is how the per-request allocation ledger of the
// live path is taken — no patched copy of bench/ needed.
func benchmarkRelay(b *testing.B, keepAlive bool) {
	keepHeads(b)
	unlimited := qos.Vector{CPUTime: 1000 * time.Second, DiskTime: 1000 * time.Second, NetBytes: 1 << 40}
	addr, srv := startTB(b, Config{
		Subscribers: []qos.Subscriber{
			{ID: "site1", Hosts: []string{"www.site1.example"}, Reservation: 50_000, QueueLimit: 4096},
			{ID: "site2", Hosts: []string{"www.site2.example"}, Reservation: 50_000, QueueLimit: 4096},
			{ID: "site3", Hosts: []string{"www.site3.example"}, Reservation: 50_000, QueueLimit: 4096},
			{ID: "site4", Hosts: []string{"www.site4.example"}, Reservation: 50_000, QueueLimit: 4096},
		},
		Backends: []Backend{
			{ID: 1, Addr: liveBackend(b, 1), Capacity: unlimited},
			{ID: 2, Addr: liveBackend(b, 2), Capacity: unlimited},
		},
	})
	// One connection per request is the paper's client: HTTP/1.0, closed by
	// the server after its one response.
	proto := "HTTP/1.0"
	if keepAlive {
		proto = "HTTP/1.1"
	}
	var requests [][]byte
	for _, host := range []string{"www.site1.example", "www.site2.example", "www.site3.example", "www.site4.example"} {
		requests = append(requests, []byte("GET /static/512.html "+proto+"\r\nHost: "+host+"\r\n\r\n"))
	}
	b.ReportAllocs()
	b.SetParallelism(8) // clients per CPU: enough to keep both backends busy
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var c net.Conn
		br := bufio.NewReader(nil)
		var resp httpwire.Response
		for i := 0; pb.Next(); i++ {
			if c == nil {
				var err error
				if c, err = net.Dial("tcp", addr); err != nil {
					b.Errorf("dial: %v", err)
					return
				}
				_ = c.SetDeadline(time.Now().Add(30 * time.Second))
				br.Reset(c)
			}
			if _, err := c.Write(requests[i%len(requests)]); err != nil {
				b.Errorf("write: %v", err)
				return
			}
			n, err := resp.ReadHead(br)
			if err != nil || resp.StatusCode != 200 || n != 512 {
				b.Errorf("response %+v, n %d, %v", resp, n, err)
				return
			}
			if _, err := br.Discard(int(n)); err != nil {
				b.Errorf("body: %v", err)
				return
			}
			if !keepAlive {
				c.Close()
				c = nil
			}
		}
		if c != nil {
			c.Close()
		}
	})
	b.StopTimer()
	if st := srv.Stats(); st.Errors != 0 || st.Rejected != 0 {
		b.Errorf("stats = %+v, want every request served", st)
	}
}

func BenchmarkRelayKeepAlive(b *testing.B)      { benchmarkRelay(b, true) }
func BenchmarkRelayConnPerRequest(b *testing.B) { benchmarkRelay(b, false) }
