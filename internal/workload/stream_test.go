package workload

import (
	"math/rand"
	"testing"
	"time"

	"gage/internal/qos"
)

// eagerSchedule is the reference the Stream is held against: the loop
// Source.Schedule ran before it became a drain of the stream — one source at
// a time, first gap drawn before the first shape.
func eagerSchedule(s Source, run time.Duration, firstID uint64) ([]Request, uint64) {
	var out []Request
	id := firstID
	for t := s.Arrivals.NextGap(); t < run; t += s.Arrivals.NextGap() {
		r := s.Gen.Next()
		r.ID = id
		r.Subscriber = s.Subscriber
		r.Arrival = t
		out = append(out, r)
		id++
	}
	return out, id
}

func mustConstant(t *testing.T, rate float64) Arrivals {
	t.Helper()
	a, err := NewConstantRate(rate)
	if err != nil {
		t.Fatalf("NewConstantRate: %v", err)
	}
	return a
}

func mustPoisson(t *testing.T, rate float64, seed int64) Arrivals {
	t.Helper()
	a, err := NewPoisson(rate, seed)
	if err != nil {
		t.Fatalf("NewPoisson: %v", err)
	}
	return a
}

// streamCases builds each source set afresh on every call: both sides of the
// comparison must start from unconsumed generators.
func streamCases(t *testing.T) map[string]func() []Source {
	static := qos.Vector{CPUTime: time.Millisecond, NetBytes: 4096}
	cgi := qos.Vector{CPUTime: 40 * time.Millisecond, DiskTime: 5 * time.Millisecond, NetBytes: 900}
	constant := func() Source {
		return Source{Subscriber: "const", Gen: NewStaticPage("const.example", SixKBPage), Arrivals: mustConstant(t, 330)}
	}
	poisson := func() Source {
		return Source{Subscriber: "poisson", Gen: NewGeneric("poisson.example"), Arrivals: mustPoisson(t, 700, 3)}
	}
	spec := func() Source {
		return Source{Subscriber: "spec", Gen: NewSPECWeb99("spec.example", 99), Arrivals: mustPoisson(t, 250, 7)}
	}
	mix := func() Source {
		return Source{Subscriber: "cgi", Gen: NewCGIMix("cgi.example", 21, 0.3, static, cgi), Arrivals: mustConstant(t, 120)}
	}
	return map[string]func() []Source{
		"constant": func() []Source { return []Source{constant()} },
		"poisson":  func() []Source { return []Source{poisson()} },
		"specweb":  func() []Source { return []Source{spec()} },
		"cgimix":   func() []Source { return []Source{mix()} },
		"mixed":    func() []Source { return []Source{constant(), poisson(), spec(), mix()} },
		// Equal rates put every arrival on a tie that only the ID breaks; the
		// slow source runs dry of arrivals inside the run long before the rest.
		"ties": func() []Source {
			return []Source{constant(), constant(), spec(), constant(),
				{Subscriber: "slow", Gen: NewGeneric("slow.example"), Arrivals: mustConstant(t, 0.9)}}
		},
		"empty": func() []Source {
			return []Source{{Subscriber: "never", Gen: NewGeneric("never.example"), Arrivals: mustConstant(t, 0.1)}, constant()}
		},
	}
}

// mergedSchedules is what a Stream over sources must yield: each source
// scheduled eagerly, IDs running on from one to the next, merged.
func mergedSchedules(sources []Source, run time.Duration, firstID uint64) []Request {
	var streams [][]Request
	next := firstID
	for _, src := range sources {
		var reqs []Request
		reqs, next = eagerSchedule(src, run, next)
		streams = append(streams, reqs)
	}
	return Merge(streams...)
}

// TestStreamMatchesMergedSchedules holds the lazy merge against the eager
// path it replaced, element for element: IDs, arrivals, subscribers, hosts,
// paths and costs, from a first ID of 1 and of something else.
func TestStreamMatchesMergedSchedules(t *testing.T) {
	const run = 3 * time.Second
	for name, build := range streamCases(t) {
		for _, firstID := range []uint64{1, 5000} {
			want := mergedSchedules(build(), run, firstID)
			st := NewStream(build(), run, firstID)
			if st.Len() != len(want) {
				t.Fatalf("%s from %d: Len = %d, eager path scheduled %d", name, firstID, st.Len(), len(want))
			}
			// Hold every pointer to the end: a slab handed out twice would
			// show as an early request overwritten by a late one.
			var got []*Request
			for r, ok := st.Next(); ok; r, ok = st.Next() {
				got = append(got, r)
			}
			if len(got) != len(want) {
				t.Fatalf("%s from %d: streamed %d requests, want %d", name, firstID, len(got), len(want))
			}
			for i := range want {
				if *got[i] != want[i] {
					t.Fatalf("%s from %d: request %d = %+v, want %+v", name, firstID, i, *got[i], want[i])
				}
			}
			if r, ok := st.Next(); ok || r != nil {
				t.Errorf("%s from %d: Next after the end = %v, %v", name, firstID, r, ok)
			}
		}
	}
}

// TestStreamReleasingConsumerSeesTheSameRequests holds a consumer that gives
// records back against the eager path: after each pull it releases a random
// half of what it still has in hand, and every request it then pulls —
// whether carved fresh or a record it released — carries the ID, arrival,
// subscriber, host, path and cost the merged schedules do. A released record
// comes back zeroed before it is refilled, the books count every release,
// and the records carved stay at what the consumer had in hand at once.
func TestStreamReleasingConsumerSeesTheSameRequests(t *testing.T) {
	const run = 3 * time.Second
	for name, build := range streamCases(t) {
		want := mergedSchedules(build(), run, 1)
		rng := rand.New(rand.NewSource(int64(len(want))))
		st := NewStream(build(), run, 1)
		var inHand []*Request
		released, peak := 0, 0
		for i := range want {
			r, ok := st.Next()
			if !ok {
				t.Fatalf("%s: stream ended after %d requests, want %d", name, i, len(want))
			}
			if *r != want[i] {
				t.Fatalf("%s: request %d = %+v, want %+v", name, i, *r, want[i])
			}
			inHand = append(inHand, r)
			peak = max(peak, len(inHand))
			if rng.Intn(8) > 0 {
				continue
			}
			// Release about half of what is in hand, oldest and newest alike.
			kept := inHand[:0]
			for _, h := range inHand {
				if rng.Intn(2) == 0 {
					kept = append(kept, h)
					continue
				}
				st.Release(h)
				released++
				if *h != (Request{}) {
					t.Fatalf("%s: a released record still reads %+v, want it zeroed", name, *h)
				}
			}
			inHand = kept
		}
		if r, ok := st.Next(); ok || r != nil {
			t.Errorf("%s: Next after the end = %v, %v", name, r, ok)
		}
		if st.Released() != released {
			t.Errorf("%s: Released = %d, the consumer released %d", name, st.Released(), released)
		}
		// What is still in hand was never handed out twice.
		seen := make(map[*Request]bool, len(inHand))
		for _, h := range inHand {
			if seen[h] {
				t.Fatalf("%s: one record is in hand twice", name)
			}
			seen[h] = true
		}
		if got, bound := st.Records(), peak+slabSize; got > bound {
			t.Errorf("%s: %d records carved for a consumer that held %d at most (bound %d)", name, got, peak, bound)
		}
	}
}

// TestScheduleDrainsTheStream: the one arrival generator also serves the
// materialized form — same requests and next ID as the reference loop, nil
// for a source with no arrival in the run, and a consumed arrival process is
// rewound rather than continued.
func TestScheduleDrainsTheStream(t *testing.T) {
	const run = 2 * time.Second
	for name, build := range streamCases(t) {
		for i := range build() {
			want, wantNext := eagerSchedule(build()[i], run, 17)
			src := build()[i]
			src.Arrivals.NextGap() // consumed before scheduling
			got, next := src.Schedule(run, 17)
			if next != wantNext || len(got) != len(want) {
				t.Fatalf("%s[%d]: scheduled %d (next ID %d), want %d (next ID %d)", name, i, len(got), next, len(want), wantNext)
			}
			if len(want) == 0 && got != nil {
				t.Errorf("%s[%d]: empty schedule = %v, want nil", name, i, got)
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("%s[%d]: request %d = %+v, want %+v", name, i, k, got[k], want[k])
				}
			}
		}
	}
}
