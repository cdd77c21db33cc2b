package dispatch

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"gage/internal/httpwire"
	"gage/internal/qos"
	"gage/internal/telemetry"
)

// raceGet is rawGet without tb.Fatalf, safe to call from worker goroutines:
// every failure comes back as an error for the test goroutine to judge.
func raceGet(addr, host, path string) (*httpwire.Response, error) {
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		return nil, err
	}
	req := &httpwire.Request{Method: "GET", Target: path, Proto: "HTTP/1.0", Host: host}
	if err := req.Write(conn); err != nil {
		return nil, err
	}
	return httpwire.ReadResponse(bufio.NewReader(conn))
}

// TestScrapeUnderShardedLoad hammers a recording, sharded dispatcher from
// every side at once: request traffic spread across subscribers in different
// admission shards, /metrics and /_gage/cycles and /_gage/stats scrapes, and
// direct Stats() reads — while the accounting poller relays usage in the
// background. The test's real assertion is the race detector (make race runs
// this package with -race); on top of that every scrape must stay well-formed
// mid-churn and the books must be sane afterwards.
func TestScrapeUnderShardedLoad(t *testing.T) {
	subs := make([]qos.Subscriber, 6)
	hosts := make([]string, len(subs))
	for i := range subs {
		id := fmt.Sprintf("site%d", i+1)
		hosts[i] = fmt.Sprintf("www.%s.example", id)
		subs[i] = qos.Subscriber{
			ID:          qos.SubscriberID(id),
			Hosts:       []string{hosts[i]},
			Reservation: qos.GRPS(50 * (i + 1)),
		}
	}
	addr, srv := startTB(t, Config{
		Subscribers:       subs,
		Backends:          []Backend{{ID: 1, Addr: liveBackend(t, 1)}, {ID: 2, Addr: liveBackend(t, 2)}},
		MaxConns:          64,
		CycleRingSize:     128,
		CycleLog:          &lockedBuffer{},
		ConformanceWindow: 2 * time.Second,
	})

	const rounds = 20
	errc := make(chan error, 64)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				host := hosts[(w+i)%len(hosts)]
				resp, err := raceGet(addr, host, "/static/512.html")
				if err != nil {
					errc <- fmt.Errorf("get %s: %w", host, err)
					return
				}
				// 503 is a legitimate shed under the connection cap; anything
				// else non-200 is a wiring failure.
				if resp.StatusCode != 200 && resp.StatusCode != 503 {
					errc <- fmt.Errorf("get %s: status %d", host, resp.StatusCode)
					return
				}
			}
		}()
	}
	for _, path := range []string{MetricsPath, CyclesPath, StatsPath} {
		path := path
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				resp, err := raceGet(addr, "scrape.internal", path)
				if err != nil {
					errc <- fmt.Errorf("scrape %s: %w", path, err)
					return
				}
				if resp.StatusCode != 200 {
					errc <- fmt.Errorf("scrape %s: status %d", path, resp.StatusCode)
					return
				}
				if path == MetricsPath {
					if _, err := telemetry.Parse(resp.Body); err != nil {
						errc <- fmt.Errorf("mid-churn exposition fails lint: %w", err)
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds*4; i++ {
			_ = srv.Stats()
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// relay counts a request served after its response write returns, so the
	// last client can hold its 200 a moment before the counter moves.
	booked := func() uint64 {
		st := srv.Stats()
		return st.Served + st.Shed + st.Rejected + st.Unclassified
	}
	for deadline := time.Now().Add(2 * time.Second); booked() < 4*rounds && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	st := srv.Stats()
	if st.Served == 0 {
		t.Fatal("no request served through the churn")
	}
	if st.Served+st.Shed+st.Rejected+st.Unclassified < 4*rounds {
		t.Errorf("books short: %+v accounts fewer than the %d issued requests", st, 4*rounds)
	}
}
