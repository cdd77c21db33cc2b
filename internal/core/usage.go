package core

import "gage/internal/qos"

// SubscriberUsage is a subscriber's actual consumption on one RPN during one
// accounting cycle.
type SubscriberUsage struct {
	// Usage is the resources consumed by the subscriber's completed work.
	Usage qos.Vector
	// Completed is how many of the subscriber's requests finished.
	Completed int
}

// UsageReport is one accounting message from an RPN (§3.5): the node's total
// resource usage in the last accounting cycle plus the per-subscriber split.
type UsageReport struct {
	Node         NodeID
	Total        qos.Vector
	BySubscriber map[qos.SubscriberID]SubscriberUsage
}

// DiffUsageReports converts a node's cumulative usage report into the delta
// since the previous snapshot — the one differ behind both the live
// dispatcher's accounting poller and the simulator's feedback book. A
// restart (counters going backwards, for the node or for one subscriber) is
// treated as a fresh start: the new cumulative IS the delta. The
// per-subscriber deltas are written into scratch (cleared first; nil
// allocates fresh), so a poller can recycle one map per node.
func DiffUsageReports(cum, prev UsageReport, scratch map[qos.SubscriberID]SubscriberUsage) UsageReport {
	if scratch == nil {
		scratch = make(map[qos.SubscriberID]SubscriberUsage, len(cum.BySubscriber))
	} else {
		clear(scratch)
	}
	delta := UsageReport{
		Node:         cum.Node,
		Total:        cum.Total.Sub(prev.Total),
		BySubscriber: scratch,
	}
	if delta.Total.AnyNegative() {
		delta.Total = cum.Total
		prev = UsageReport{}
	}
	for id, u := range cum.BySubscriber {
		p := prev.BySubscriber[id]
		d := SubscriberUsage{
			Usage:     u.Usage.Sub(p.Usage),
			Completed: u.Completed - p.Completed,
		}
		if d.Usage.AnyNegative() || d.Completed < 0 {
			d = u // restarted: take the fresh cumulative
		}
		if d.Usage.IsZero() && d.Completed == 0 {
			continue
		}
		delta.BySubscriber[id] = d
	}
	return delta
}
