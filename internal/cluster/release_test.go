package cluster

import (
	"reflect"
	"testing"
	"time"

	"gage/internal/faults"
	"gage/internal/flightrec"
	"gage/internal/frontier"
	"gage/internal/obs"
	"gage/internal/workload"
)

// releaseScenarios is every scenario sim_golden.txt pins, as options, plus
// Table 1 cut short with every request traced onto a bus. Each call builds
// the options afresh: sources are consumed by a run.
func releaseScenarios(t *testing.T) map[string]func() FrontierOptions {
	one := func(o Options) FrontierOptions { return FrontierOptions{Options: o} }
	return map[string]func() FrontierOptions{
		"table1": func() FrontierOptions { return one(table1Options()) },
		"table2": func() FrontierOptions { return one(table2Options()) },
		"table1-traced": func() FrontierOptions {
			o := table1Options()
			o.Warmup, o.Duration = time.Second, 3*time.Second
			o.Bus, o.TraceEvery = obs.NewBus(obs.BusConfig{RingSize: 256}), 1
			return one(o)
		},
		"chaos-crash": func() FrontierOptions { return one(chaosOptions(crashPlan())) },
		"elasticity-drill": func() FrontierOptions {
			return one(ElasticityDrillOptions(flightrec.NewRecorder(flightrec.Config{RingSize: 64})))
		},
		"obs-drill": func() FrontierOptions {
			return one(ObsDrillOptions(flightrec.NewRecorder(flightrec.Config{RingSize: 64}), obs.NewBus(obs.BusConfig{RingSize: 256})))
		},
		"rdn-failover-drill": func() FrontierOptions { return failoverDrillOptions(t) },
		"lease-delay-fencing": func() FrontierOptions {
			o, _ := leaseDelayFencingOptions(t)
			return o
		},
		"mixed-one-rdn": func() FrontierOptions { return one(goldenMixedOptions()) },
		"mixed-two-rdn": func() FrontierOptions { return FrontierOptions{Options: goldenMixedOptions(), RDNCount: 2} },
	}
}

// failoverDrillOptions is RDNFailoverDrill's scenario at its defaults, which
// the drill builds and runs in one call; TestReleaseBooksClose checks that
// the two produce the same books.
func failoverDrillOptions(t *testing.T) FrontierOptions {
	t.Helper()
	d := FrontierDrillOptions{}.WithDefaults()
	part, err := frontier.NewPartitioner(d.RDNCount)
	if err != nil {
		t.Fatal(err)
	}
	victim := part.Owner(drillGroup(0))
	subs, sources := frontierTestPopulation(t, d.Groups, d.PerGroup, d.ResPerSub, 1)
	return FrontierOptions{
		Options: Options{
			Subscribers: subs, Sources: sources, NumRPNs: d.NumRPNs, Warmup: d.Warmup, Duration: d.Duration,
			Faults: &faults.Plan{Events: []faults.Event{
				{Kind: faults.RDNCrash, RDN: victim, At: d.CrashAt},
				{Kind: faults.RDNRecover, RDN: victim, At: d.RecoverAt},
			}},
		},
		RDNCount: d.RDNCount, LeaseInterval: d.LeaseInterval,
	}
}

// TestReleaseBooksClose audits the rule that a simulated request's record
// goes back to the stream exactly once, when nothing holds it any more. The
// identity follows from the books the result already keeps,
//
//	arrivals   = admitted + shed + refusedDead + unclassifiable + (in the admission hop or unrouted)
//	admitted   = dispatched + queuedAtEnd + lostQueued + orphaned
//	dispatched = delivered + reclaimed + fenced + inflightAtEnd
//
// and from where the hops release: a flight's end (delivered, fenced, or
// reclaimed — by the landing itself or by a crash sweep before it) and an
// arrival turned away (shed, refused, unclassifiable). So
//
//	released         = delivered + reclaimed + fenced + shed + refusedDead + unclassifiable − aloft
//	Len() − released = queuedAtEnd + inflightAtEnd + orphaned + lostQueued + pending + aloft
//
// where aloft is the dispatches a crash sweep has settled whose flights have
// not landed yet, and pending the arrivals whose admission work has not
// finished (or that found no live front end to charge it to). Neither is a
// counter of the result, so the test reads the books twice: at the end of
// the run, where aloft and pending may be a handful and are bounded by what
// is left over, and again one virtual second later — no arrivals come, every
// flight has landed, every admission finished — where both are zero and the
// two lines hold exactly. A record released twice, or released while a queue
// or a flight still holds it and so handed to a second request that is
// released in its turn, puts released over the first line.
func TestReleaseBooksClose(t *testing.T) {
	for name, build := range releaseScenarios(t) {
		s, err := newSim(build().withFrontierDefaults())
		if err != nil {
			t.Fatalf("%s: newSim: %v", name, err)
		}
		unclassifiable := 0
		enqueue := s.enqueueFn
		s.enqueueFn = func(arg any) {
			req := arg.(*workload.Request)
			if _, ok := s.classifier.Classify(req.Host, req.Path); !ok {
				unclassifiable++
			}
			enqueue(arg)
		}
		if err := s.run(); err != nil {
			t.Fatalf("%s: run: %v", name, err)
		}
		ended := func(r *FrontierResult) int {
			return r.DeliveredReqs + r.ReclaimedReqs + r.FencedReqs + r.ShedReqs + r.RefusedDeadReqs + unclassifiable
		}
		held := func(r *FrontierResult) int {
			return r.QueuedAtEnd + r.InflightAtEnd + r.OrphanedReqs + r.LostQueuedReqs
		}

		r := s.result()
		released, total := s.stream.Released(), s.stream.Len()
		aloft := ended(r) - released
		leftOver := total - released - held(r) // pending + aloft
		if aloft < 0 || aloft > leftOver {
			t.Errorf("%s at the end of the run: %d released with %d requests over, and %d of the %d unreleased accounted for as held: aloft %d must lie in [0, %d]",
				name, released, ended(r), held(r), total-released, aloft, leftOver)
		}
		if released == 0 || released > total {
			t.Errorf("%s: %d of %d records released", name, released, total)
		}

		if err := s.engine.RunFor(time.Second); err != nil {
			t.Fatalf("%s: settling: %v", name, err)
		}
		r = s.result()
		released = s.stream.Released()
		if released != ended(r) {
			t.Errorf("%s settled: %d released, want %d = delivered %d + reclaimed %d + fenced %d + shed %d + refused %d + unclassifiable %d",
				name, released, ended(r), r.DeliveredReqs, r.ReclaimedReqs, r.FencedReqs, r.ShedReqs, r.RefusedDeadReqs, unclassifiable)
		}
		if total-released != held(r) {
			t.Errorf("%s settled: %d never released, want %d = queued %d + in flight %d + orphaned %d + lost queued %d",
				name, total-released, held(r), r.QueuedAtEnd, r.InflightAtEnd, r.OrphanedReqs, r.LostQueuedReqs)
		}
	}
}

// TestReleaseScenariosAreTheGoldenOnes: the failover scenario rebuilt for
// TestReleaseBooksClose is the drill's own — same rows and books.
func TestReleaseScenariosAreTheGoldenOnes(t *testing.T) {
	rep, err := RDNFailoverDrill(FrontierDrillOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunFrontier(failoverDrillOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	want := rep.Result
	if !reflect.DeepEqual(got.Rows, want.Rows) || !reflect.DeepEqual(got.Takeovers, want.Takeovers) ||
		got.DispatchedReqs != want.DispatchedReqs || got.RefusedDeadReqs != want.RefusedDeadReqs ||
		got.LostQueuedReqs != want.LostQueuedReqs || got.HandedOffReqs != want.HandedOffReqs {
		t.Errorf("rebuilt failover scenario diverges from RDNFailoverDrill:\n got  %+v\n want %+v", got.Rows, want.Rows)
	}
}
