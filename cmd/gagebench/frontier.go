package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"gage/internal/benchkit"
	"gage/internal/cluster"
)

// frontierBench prints the tier-scale per-cycle cost sweep — the numbers
// make bench-frontier gates at 0 allocs/op.
func frontierBench() error {
	fmt.Println("== front-end tier per-cycle cost vs tier size ==")
	fmt.Println("(128 subscribers over 32 groups; tier-wide cost must stay flat, so each")
	fmt.Println(" instance's share is ~1/N of the single-RDN baseline)")
	rows, err := benchkit.MeasureFrontierScale()
	if err != nil {
		return err
	}
	fmt.Printf("%-6s %14s %14s %14s\n", "RDNs", "ns/cycle", "ns/cycle/RDN", "allocs/cycle")
	for _, r := range rows {
		fmt.Printf("%-6d %14d %14d %14d\n", r.RDNs, r.NsPerOp, r.NsPerRDN, r.Allocs)
	}
	fmt.Println()
	return nil
}

// rdnfail runs the deterministic RDN-failover drill and prints the whole
// story: the ownership timeline, per-partition service, the settlement
// books, the audit verdict, and the Figure-6-style knee projection. With
// -cycles PREFIX each instance's cycle log spills to PREFIX.rdnN.jsonl for
// gagetrace audit.
func rdnfail() error {
	fmt.Println("== RDN failover drill: 3-instance tier, kill one, recover it ==")
	rep, err := cluster.RDNFailoverDrill(cluster.FrontierDrillOptions{})
	if err != nil {
		return err
	}
	opts := rep.Opts
	fmt.Printf("tier of %d, %d RPNs, %d groups × %d subscribers, lease %v\n",
		opts.RDNCount, opts.NumRPNs, opts.Groups, opts.PerGroup, opts.LeaseInterval)
	fmt.Printf("victim RDN %d (partition %v) crashes at %v, recovers at %v\n",
		rep.Victim, rep.VictimGroups, opts.CrashAt, opts.RecoverAt)
	fmt.Println()
	fmt.Println("ownership timeline:")
	for _, ch := range rep.Result.Takeovers {
		fmt.Printf("  %8v  %-9s %-7s RDN %d -> RDN %d (epoch %d)\n",
			ch.At, ch.Kind, ch.Group, ch.From, ch.To, ch.Epoch)
	}
	if rep.TakeoverLatency > 0 {
		fmt.Printf("takeover latency: %v (lease interval %v)\n", rep.TakeoverLatency, opts.LeaseInterval)
	}
	fmt.Println()
	fmt.Printf("%-10s %-8s %10s %10s %10s %10s\n",
		"subscriber", "owner", "offered", "served", "dropped", "p95")
	part := make(map[string]string)
	for _, g := range rep.VictimGroups {
		part[g] = fmt.Sprintf("rdn%d*", rep.Victim)
	}
	for _, row := range rep.Result.Rows {
		g := string(row.ID[:6])
		owner, ok := part[g]
		if !ok {
			owner = "survivor"
		}
		fmt.Printf("%-10s %-8s %10d %10d %10d %10s\n",
			row.ID, owner, row.OfferedReqs, row.ServedReqs, row.DroppedReqs,
			row.P95Latency.Round(time.Millisecond))
	}
	r := rep.Result
	fmt.Printf("\nbooks: admitted=%d dispatched=%d delivered=%d queued_at_end=%d\n",
		r.AdmittedReqs, r.DispatchedReqs, r.DeliveredReqs, r.QueuedAtEnd)
	fmt.Printf("       refused_dead=%d handed_off=%d fenced=%d lost_queued=%d reclaimed=%d\n",
		r.RefusedDeadReqs, r.HandedOffReqs, r.FencedReqs, r.LostQueuedReqs, r.ReclaimedReqs)
	if err := rep.Check(); err != nil {
		fmt.Printf("drill verdict: FAIL — %v\n", err)
	} else {
		fmt.Println("drill verdict: PASS — exactly-once settlement, blast radius bounded to the")
		fmt.Println("               victim's partition, survivors audit clean, takeover within one")
		fmt.Println("               lease interval")
	}
	if *cyclesPath != "" {
		for i, recs := range rep.Records {
			path := fmt.Sprintf("%s.rdn%d.jsonl", *cyclesPath, i+1)
			f, err := os.Create(path)
			if err != nil {
				return fmt.Errorf("cycles: %w", err)
			}
			enc := json.NewEncoder(f)
			for j := range recs {
				if err := enc.Encode(&recs[j]); err != nil {
					f.Close()
					return fmt.Errorf("cycles: %w", err)
				}
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Printf("cycle log: %s\n", path)
		}
		fmt.Printf("audit with: gagetrace audit -warmup %v %s.rdn*.jsonl\n", opts.Warmup, *cyclesPath)
	}
	fmt.Println()
	fmt.Println("Figure-6-style projection: the interrupt-overload knee moves right by N")
	fmt.Printf("%-6s %18s\n", "RDNs", "saturation req/s")
	for _, p := range cluster.FrontierKnee(cluster.DefaultRDNModel(), []int{1, 2, 3, 4}) {
		fmt.Printf("%-6d %18.0f\n", p.RDNs, p.SatReqPerSec)
	}
	fmt.Println()
	return nil
}
