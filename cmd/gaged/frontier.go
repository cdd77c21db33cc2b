package main

// Multi-RDN tier membership for a live gaged instance. One instance (the
// one with "leaseListen" set, by convention rdnId 1) hosts the lease table
// behind the loopback TCP service in internal/frontier; every instance —
// including the host — dials it, heartbeats with accounting snapshots of
// the groups it owns, and applies the ownership changes each check returns:
//
//   - a group arriving here simply starts passing the Owns admission gate —
//     every instance is configured with the full subscriber population, so
//     the scheduler already has the definitions and materializes them
//     lazily on first traffic;
//   - a group leaving here stops passing Owns immediately and is marked
//     migrating, so a later drain (Close) withdraws its queued requests as
//     redispatchable handoffs instead of shedding them.
//
// Owns and Fence read the locally cached partition, refreshed every beat:
// live fencing is bounded-staleness (one beat interval), unlike the
// simulator's exact epoch fence — the lease interval is chosen so the
// overlap window is smaller than a queue drain.

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"gage/internal/core"
	"gage/internal/dispatch"
	"gage/internal/frontier"
	"gage/internal/qos"
)

// tierFileConfig is the tier section of the gaged JSON config.
type tierFileConfig struct {
	// RDNCount is the tier size; 0 or 1 runs the classic single front end
	// and every other tier knob must be absent.
	RDNCount int `json:"rdnCount"`
	// RDNID is this instance's id, 1..rdnCount.
	RDNID int `json:"rdnId"`
	// LeaseMillis is the lease interval (default 1000); heartbeats run at a
	// third of it.
	LeaseMillis int `json:"leaseMillis"`
	// LeaseListen makes this instance host the lease table on the address.
	LeaseListen string `json:"leaseListen"`
	// LeaseAddr is the lease service to dial (defaults to leaseListen when
	// this instance hosts it).
	LeaseAddr string `json:"leaseAddr"`
}

func (tc tierFileConfig) enabled() bool { return tc.RDNCount > 1 }

func (tc tierFileConfig) leaseInterval() time.Duration {
	if tc.LeaseMillis == 0 {
		return time.Second
	}
	return time.Duration(tc.LeaseMillis) * time.Millisecond
}

// validate checks the tier knobs and defaults leaseAddr to leaseListen.
func (tc *tierFileConfig) validate() error {
	if tc.RDNCount < 0 {
		return fmt.Errorf("rdnCount must not be negative (got %d)", tc.RDNCount)
	}
	if tc.LeaseMillis < 0 {
		return fmt.Errorf("leaseMillis must not be negative (got %d)", tc.LeaseMillis)
	}
	if !tc.enabled() {
		if tc.RDNID != 0 || tc.LeaseListen != "" || tc.LeaseAddr != "" {
			return fmt.Errorf("rdnId/leaseListen/leaseAddr require rdnCount >= 2 (got rdnCount %d)", tc.RDNCount)
		}
		return nil
	}
	if tc.RDNID < 1 || tc.RDNID > tc.RDNCount {
		return fmt.Errorf("rdnId must be 1..%d (got %d)", tc.RDNCount, tc.RDNID)
	}
	if tc.LeaseAddr == "" {
		if tc.LeaseListen == "" {
			return fmt.Errorf("leaseAddr is required (or leaseListen to host the table)")
		}
		tc.LeaseAddr = tc.LeaseListen
	}
	return nil
}

// subscriberGroups returns the distinct tenant groups of the population, in
// sorted order — the lease table's group universe.
func subscriberGroups(subs []qos.Subscriber) []string {
	seen := make(map[string]bool)
	var out []string
	for _, s := range subs {
		if !seen[s.Group] {
			seen[s.Group] = true
			out = append(out, s.Group)
		}
	}
	sort.Strings(out)
	return out
}

// tierRunner is one instance's live tier membership.
type tierRunner struct {
	cfg    tierFileConfig
	groups []string

	mu    sync.Mutex
	owned map[string]struct{}

	srv      *dispatch.Server // set after dispatch.New
	client   *frontier.Client
	leaseSrv *frontier.Server
	stop     chan struct{}
	done     sync.WaitGroup
}

func newTierRunner(tc tierFileConfig, groups []string) *tierRunner {
	return &tierRunner{
		cfg:    tc,
		groups: groups,
		owned:  make(map[string]struct{}),
		stop:   make(chan struct{}),
	}
}

// owns is the dispatcher's admission gate; fence its relay gate. Both read
// the beat-refreshed cache.
func (tr *tierRunner) owns(group string) bool {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	_, ok := tr.owned[group]
	return ok
}

// start hosts the lease table if configured, dials the service, seeds the
// owned partition, and launches the heartbeat loop.
func (tr *tierRunner) start() error {
	if tr.cfg.LeaseListen != "" {
		tb, err := frontier.NewTable(frontier.Config{
			RDNs:          tr.cfg.RDNCount,
			LeaseInterval: tr.cfg.leaseInterval(),
		}, tr.groups)
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", tr.cfg.LeaseListen)
		if err != nil {
			return fmt.Errorf("leaseListen: %w", err)
		}
		tr.leaseSrv = frontier.NewServer(tb)
		srv := tr.leaseSrv
		go func() {
			if err := srv.Serve(ln); err != nil {
				fmt.Println("gaged: lease server:", err)
			}
		}()
	}
	// Peers may come up before the host: retry the dial across one lease
	// interval before giving up.
	var client *frontier.Client
	var err error
	deadline := time.Now().Add(tr.cfg.leaseInterval())
	for {
		client, err = frontier.Dial(tr.cfg.LeaseAddr)
		if err == nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("lease service %s: %w", tr.cfg.LeaseAddr, err)
	}
	tr.client = client
	if err := tr.beat(); err != nil {
		return fmt.Errorf("initial heartbeat: %w", err)
	}
	tr.done.Add(1)
	go func() {
		defer tr.done.Done()
		tick := time.NewTicker(tr.cfg.leaseInterval() / 3)
		defer tick.Stop()
		for {
			select {
			case <-tr.stop:
				return
			case <-tick.C:
				if err := tr.beat(); err != nil {
					fmt.Println("gaged: heartbeat:", err)
				}
			}
		}
	}()
	return nil
}

// beat sends one heartbeat with snapshots of the owned groups, runs lease
// expiry, and applies the resulting ownership changes.
func (tr *tierRunner) beat() error {
	tr.mu.Lock()
	gs := make([]string, 0, len(tr.owned))
	for g := range tr.owned {
		gs = append(gs, g)
	}
	tr.mu.Unlock()
	sort.Strings(gs)
	var snaps map[string][]core.SubscriberState
	if tr.srv != nil && len(gs) > 0 {
		snaps = make(map[string][]core.SubscriberState, len(gs))
		for _, g := range gs {
			if st, err := tr.srv.Scheduler().ExportGroup(g); err == nil {
				snaps[g] = st
			}
		}
	}
	if err := tr.client.Beat(tr.cfg.RDNID, snaps); err != nil {
		return err
	}
	changes, err := tr.client.Check()
	if err != nil {
		return err
	}
	for _, ch := range changes {
		tr.apply(ch)
	}
	// Check hands each ownership change only to the instance whose beat
	// triggered it: a handback observed by the rejoining peer would leave
	// this instance serving the group forever. Reconcile against the
	// table's authoritative partition so every member converges within one
	// beat no matter whose check moved the groups.
	gs, err = tr.client.Partition(tr.cfg.RDNID)
	if err != nil {
		return err
	}
	tr.reconcile(gs)
	return nil
}

// reconcile replaces the cached partition with the table's view, marking
// groups that left as migrating (apply already handled — and logged — the
// changes this instance's own check observed, so only moves first seen by a
// peer's check surface here).
func (tr *tierRunner) reconcile(gs []string) {
	cur := make(map[string]struct{}, len(gs))
	for _, g := range gs {
		cur[g] = struct{}{}
	}
	tr.mu.Lock()
	var lost, gained []string
	for g := range tr.owned {
		if _, ok := cur[g]; !ok {
			lost = append(lost, g)
		}
	}
	for g := range cur {
		if _, ok := tr.owned[g]; !ok {
			gained = append(gained, g)
		}
	}
	tr.owned = cur
	tr.mu.Unlock()
	sort.Strings(lost)
	sort.Strings(gained)
	for _, g := range lost {
		if tr.srv != nil {
			tr.srv.SetMigrating(g)
		}
		fmt.Printf("gaged: released %q to its new owner\n", g)
	}
	for _, g := range gained {
		fmt.Printf("gaged: now serving %q\n", g)
	}
}

func (tr *tierRunner) apply(ch frontier.Change) {
	me := tr.cfg.RDNID
	switch {
	case ch.To == me:
		tr.mu.Lock()
		tr.owned[ch.Group] = struct{}{}
		tr.mu.Unlock()
		fmt.Printf("gaged: %s of %q: now owned (epoch %d, from RDN %d)\n",
			ch.Kind, ch.Group, ch.Epoch, ch.From)
	case ch.From == me:
		tr.mu.Lock()
		delete(tr.owned, ch.Group)
		tr.mu.Unlock()
		// New admissions stop at the Owns gate immediately; what is already
		// queued hands off at the next drain instead of being shed.
		if tr.srv != nil {
			tr.srv.SetMigrating(ch.Group)
		}
		fmt.Printf("gaged: %s of %q: released to RDN %d (epoch %d)\n",
			ch.Kind, ch.Group, ch.To, ch.Epoch)
	}
}

// shutdown stops the heartbeat loop, the client, and the hosted table.
func (tr *tierRunner) shutdown() {
	close(tr.stop)
	tr.done.Wait()
	if tr.client != nil {
		tr.client.Close()
	}
	if tr.leaseSrv != nil {
		tr.leaseSrv.Close()
	}
}
