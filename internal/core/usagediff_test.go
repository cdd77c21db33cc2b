package core

import (
	"reflect"
	"testing"
	"time"

	"gage/internal/qos"
)

// TestDiffReports tables the differ the live poller and the simulator
// share: first report, steady delta, idle cycles, and every restart shape.
func TestDiffReports(t *testing.T) {
	vec := func(cpu time.Duration, bytes int64) qos.Vector {
		return qos.Vector{CPUTime: cpu, NetBytes: bytes}
	}
	cases := []struct {
		name      string
		cum, prev UsageReport
		want      UsageReport
	}{
		{
			name: "first-report",
			cum: UsageReport{Node: 1, Total: vec(10*time.Millisecond, 100),
				BySubscriber: map[qos.SubscriberID]SubscriberUsage{
					"a": {Usage: vec(10*time.Millisecond, 100), Completed: 2},
				}},
			prev: UsageReport{},
			want: UsageReport{Node: 1, Total: vec(10*time.Millisecond, 100),
				BySubscriber: map[qos.SubscriberID]SubscriberUsage{
					"a": {Usage: vec(10*time.Millisecond, 100), Completed: 2},
				}},
		},
		{
			name: "steady-delta",
			cum: UsageReport{Node: 1, Total: vec(30*time.Millisecond, 300),
				BySubscriber: map[qos.SubscriberID]SubscriberUsage{
					"a": {Usage: vec(30*time.Millisecond, 300), Completed: 6},
				}},
			prev: UsageReport{Node: 1, Total: vec(10*time.Millisecond, 100),
				BySubscriber: map[qos.SubscriberID]SubscriberUsage{
					"a": {Usage: vec(10*time.Millisecond, 100), Completed: 2},
				}},
			want: UsageReport{Node: 1, Total: vec(20*time.Millisecond, 200),
				BySubscriber: map[qos.SubscriberID]SubscriberUsage{
					"a": {Usage: vec(20*time.Millisecond, 200), Completed: 4},
				}},
		},
		{
			name: "zero-delta-cycle-drops-idle-subscribers",
			cum: UsageReport{Node: 1, Total: vec(10*time.Millisecond, 100),
				BySubscriber: map[qos.SubscriberID]SubscriberUsage{
					"a": {Usage: vec(10*time.Millisecond, 100), Completed: 2},
				}},
			prev: UsageReport{Node: 1, Total: vec(10*time.Millisecond, 100),
				BySubscriber: map[qos.SubscriberID]SubscriberUsage{
					"a": {Usage: vec(10*time.Millisecond, 100), Completed: 2},
				}},
			want: UsageReport{Node: 1, Total: vec(0, 0),
				BySubscriber: map[qos.SubscriberID]SubscriberUsage{}},
		},
		{
			name: "backend-restart-resets-counters",
			cum: UsageReport{Node: 1, Total: vec(5*time.Millisecond, 50),
				BySubscriber: map[qos.SubscriberID]SubscriberUsage{
					"a": {Usage: vec(5*time.Millisecond, 50), Completed: 1},
				}},
			prev: UsageReport{Node: 1, Total: vec(30*time.Millisecond, 300),
				BySubscriber: map[qos.SubscriberID]SubscriberUsage{
					"a": {Usage: vec(30*time.Millisecond, 300), Completed: 6},
				}},
			// Counters went backwards: the fresh cumulative IS the delta.
			want: UsageReport{Node: 1, Total: vec(5*time.Millisecond, 50),
				BySubscriber: map[qos.SubscriberID]SubscriberUsage{
					"a": {Usage: vec(5*time.Millisecond, 50), Completed: 1},
				}},
		},
		{
			name: "per-subscriber-reset-without-total-reset",
			// Totals still look monotone (another subscriber grew enough),
			// but one subscriber's counters went backwards — its fresh
			// cumulative is taken rather than a negative delta.
			cum: UsageReport{Node: 1, Total: vec(50*time.Millisecond, 500),
				BySubscriber: map[qos.SubscriberID]SubscriberUsage{
					"a": {Usage: vec(2*time.Millisecond, 20), Completed: 1},
					"b": {Usage: vec(48*time.Millisecond, 480), Completed: 9},
				}},
			prev: UsageReport{Node: 1, Total: vec(40*time.Millisecond, 400),
				BySubscriber: map[qos.SubscriberID]SubscriberUsage{
					"a": {Usage: vec(10*time.Millisecond, 100), Completed: 3},
					"b": {Usage: vec(30*time.Millisecond, 300), Completed: 6},
				}},
			want: UsageReport{Node: 1, Total: vec(10*time.Millisecond, 100),
				BySubscriber: map[qos.SubscriberID]SubscriberUsage{
					"a": {Usage: vec(2*time.Millisecond, 20), Completed: 1},
					"b": {Usage: vec(18*time.Millisecond, 180), Completed: 3},
				}},
		},
		{
			name: "subscriber-vanishes-after-restart",
			cum: UsageReport{Node: 1, Total: vec(0, 0),
				BySubscriber: map[qos.SubscriberID]SubscriberUsage{}},
			prev: UsageReport{Node: 1, Total: vec(30*time.Millisecond, 300),
				BySubscriber: map[qos.SubscriberID]SubscriberUsage{
					"a": {Usage: vec(30*time.Millisecond, 300), Completed: 6},
				}},
			// Restart with nothing served yet: delta is the (empty) fresh
			// cumulative; the vanished subscriber contributes nothing.
			want: UsageReport{Node: 1, Total: vec(0, 0),
				BySubscriber: map[qos.SubscriberID]SubscriberUsage{}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := DiffUsageReports(tc.cum, tc.prev, nil)
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("DiffUsageReports:\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}

// TestDiffReportsPerSubscriberRestart: one subscriber's counters jump
// backwards (its worker restarted) while another's advance — the restarted
// one contributes its fresh cumulative, the healthy one its normal delta.
func TestDiffReportsPerSubscriberRestart(t *testing.T) {
	usage := func(cpu int64, completed int) SubscriberUsage {
		return SubscriberUsage{
			Usage:     qos.Vector{CPUTime: time.Duration(cpu)},
			Completed: completed,
		}
	}
	prev := UsageReport{
		Node:  1,
		Total: qos.Vector{CPUTime: 300},
		BySubscriber: map[qos.SubscriberID]SubscriberUsage{
			"steady":    usage(200, 20),
			"restarted": usage(100, 10),
		},
	}
	cum := UsageReport{
		Node:  1,
		Total: qos.Vector{CPUTime: 330}, // total still advances
		BySubscriber: map[qos.SubscriberID]SubscriberUsage{
			"steady":    usage(310, 31),
			"restarted": usage(20, 2), // went backwards: fresh start
		},
	}
	delta := DiffUsageReports(cum, prev, nil)
	if got := delta.BySubscriber["steady"]; got != usage(110, 11) {
		t.Errorf("steady delta = %+v, want 110/11", got)
	}
	if got := delta.BySubscriber["restarted"]; got != usage(20, 2) {
		t.Errorf("restarted delta = %+v, want fresh cumulative 20/2", got)
	}
	if delta.Total != (qos.Vector{CPUTime: 30}) {
		t.Errorf("delta total = %v, want 30", delta.Total)
	}
}
