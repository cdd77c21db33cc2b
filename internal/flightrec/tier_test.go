package flightrec

import (
	"bytes"
	"testing"
	"time"

	"gage/internal/qos"
)

func TestRecorderStampsRDNAndDrainsAnnotations(t *testing.T) {
	var tick time.Duration
	var spill bytes.Buffer
	r := NewRecorder(Config{RingSize: 8, Spill: &spill, Now: func() time.Duration { return tick }})
	r.SetRDN(2)

	r.Annotate(TierEvent{Kind: "takeover", Group: "tierA", From: 1, To: 2, Epoch: 2})
	r.Annotate(TierEvent{Kind: "fence", Group: "tierA", From: 1, Epoch: 1})
	tick = 10 * time.Millisecond
	slot := r.Begin()
	fill(slot, CycleRecord{Subs: []SubRecord{{ID: "s"}}})
	r.Commit()
	tick = 20 * time.Millisecond
	r.Begin()
	r.Commit()

	recs := r.Recent(0)
	if len(recs) != 2 {
		t.Fatalf("recorded %d cycles, want 2", len(recs))
	}
	if recs[0].RDN != 2 || recs[1].RDN != 2 {
		t.Fatalf("RDN stamps = %d,%d, want 2,2", recs[0].RDN, recs[1].RDN)
	}
	if len(recs[0].Events) != 2 {
		t.Fatalf("first record carries %d events, want 2", len(recs[0].Events))
	}
	if ev := recs[0].Events[0]; ev.Kind != "takeover" || ev.Group != "tierA" || ev.Epoch != 2 {
		t.Fatalf("event = %+v", ev)
	}
	// Annotations drain once: the second record is clean.
	if len(recs[1].Events) != 0 {
		t.Fatalf("second record carries %d events, want 0", len(recs[1].Events))
	}

	// Events survive the JSONL round trip.
	parsed, err := ReadLog(&spill)
	if err != nil {
		t.Fatalf("ReadLog: %v", err)
	}
	if len(parsed) != 2 || len(parsed[0].Events) != 2 || parsed[0].RDN != 2 {
		t.Fatalf("spilled log lost tier context: %+v", parsed)
	}
}

// TestAuditorMergedMultiRDNLog feeds the auditor an interleaved two-RDN
// stream: each RDN's records advance its own timeline, subscribers live on
// exactly one RDN, and tier events from both streams land in the report in
// ingest order.
// TestNilRecorderAnnotate: callers annotate without a recorder attached.
func TestNilRecorderAnnotate(t *testing.T) {
	(*Recorder)(nil).Annotate(TierEvent{Kind: "fence"})
}

func TestAuditorMergedMultiRDNLog(t *testing.T) {
	a := NewAuditor(nil, AuditorConfig{Window: 100 * time.Millisecond})
	step := 10 * time.Millisecond
	for i := 1; i <= 20; i++ {
		at := time.Duration(i) * step
		for rdn := 1; rdn <= 2; rdn++ {
			rec := CycleRecord{
				Seq: uint64(i),
				At:  at,
				RDN: rdn,
				Subs: []SubRecord{{
					ID:          qos.SubscriberID([]string{"", "alpha", "beta"}[rdn]),
					Reservation: 100,
					Usage:       usageOf(1),
					QueueLen:    1,
				}},
			}
			if i == 5 && rdn == 2 {
				rec.Events = []TierEvent{{Kind: "takeover", Group: "g", From: 1, To: 2, Epoch: 2}}
			}
			a.Ingest(rec)
		}
	}
	rep := a.Report()
	if rep.Records != 40 {
		t.Fatalf("ingested %d records, want 40 (both streams kept)", rep.Records)
	}
	if len(rep.Subs) != 2 {
		t.Fatalf("report covers %d subscribers, want 2", len(rep.Subs))
	}
	for _, sr := range rep.Subs {
		if !sr.Active {
			t.Fatalf("subscriber %s inactive; both streams ran to the end", sr.ID)
		}
		if sr.SlowRatio <= 0 {
			t.Fatalf("subscriber %s: slow ratio %v, want positive", sr.ID, sr.SlowRatio)
		}
	}
	if len(rep.Events) != 1 {
		t.Fatalf("report carries %d events, want 1", len(rep.Events))
	}
	ev := rep.Events[0]
	if ev.RDN != 2 || ev.At != 5*step || ev.Event.Kind != "takeover" {
		t.Fatalf("event record = %+v", ev)
	}

	// Per-RDN ordering: a stale record for RDN 1 is dropped even though RDN
	// 2's stream has advanced past it.
	before := a.Report().Records
	a.Ingest(CycleRecord{At: 15 * step, RDN: 1, Subs: []SubRecord{{ID: "alpha", Reservation: 100}}})
	if got := a.Report().Records; got != before {
		t.Fatalf("stale per-RDN record ingested (records %d -> %d)", before, got)
	}
	// But a fresh record for RDN 1 at an offset RDN 2 already passed is fine.
	a.Ingest(CycleRecord{At: 21 * step, RDN: 1, Subs: []SubRecord{{ID: "alpha", Reservation: 100, Usage: usageOf(1)}}})
	if got := a.Report().Records; got != before+1 {
		t.Fatalf("fresh per-RDN record dropped (records %d -> %d)", before, got)
	}
}

// TestAuditorLegacySingleStreamOrdering pins the degenerate behaviour: with
// every record stamped RDN 0, the per-RDN guard is exactly the old global
// append-only check.
func TestAuditorLegacySingleStreamOrdering(t *testing.T) {
	a := NewAuditor(nil, AuditorConfig{})
	a.Ingest(CycleRecord{At: 10 * time.Millisecond, Subs: []SubRecord{{ID: "s", Reservation: 10}}})
	a.Ingest(CycleRecord{At: 20 * time.Millisecond, Subs: []SubRecord{{ID: "s", Reservation: 10}}})
	a.Ingest(CycleRecord{At: 20 * time.Millisecond, Subs: []SubRecord{{ID: "s", Reservation: 10}}})
	a.Ingest(CycleRecord{At: 15 * time.Millisecond, Subs: []SubRecord{{ID: "s", Reservation: 10}}})
	if rep := a.Report(); rep.Records != 2 {
		t.Fatalf("records = %d, want 2 (duplicate and rewind dropped)", rep.Records)
	}
}
