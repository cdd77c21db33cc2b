package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestTraceIDRoundTrip(t *testing.T) {
	cases := []struct {
		rdn int
		req uint64
	}{
		{0, 0}, {0, 1}, {1, 42}, {2, 1 << 40}, {255, reqMask},
	}
	for _, c := range cases {
		id := Mint(c.rdn, c.req)
		if id == 0 {
			t.Errorf("Mint(%d, %d) minted the zero (untraced) ID", c.rdn, c.req)
		}
		if id.RDN() != c.rdn || id.Req() != c.req {
			t.Errorf("Mint(%d, %d) round-trips to (%d, %d)", c.rdn, c.req, id.RDN(), id.Req())
		}
		s := id.String()
		if len(s) != 16 {
			t.Errorf("String() = %q, want 16 hex digits", s)
		}
		back, err := ParseTraceID(s)
		if err != nil || back != id {
			t.Errorf("ParseTraceID(%q) = %v, %v; want %v", s, back, err, id)
		}
	}
	if _, err := ParseTraceID("not-hex"); err == nil {
		t.Error("ParseTraceID accepted garbage")
	}
	// Determinism: same inputs, same ID — replayed drills depend on it.
	if Mint(3, 99) != Mint(3, 99) {
		t.Error("Mint is not deterministic")
	}
}

func TestTraceIDJSON(t *testing.T) {
	type wrap struct {
		Trace TraceID `json:"trace,omitempty"`
	}
	b, err := json.Marshal(wrap{Trace: Mint(1, 0xabc)})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"trace":"0002000000000abc"}`; string(b) != want {
		t.Errorf("marshal = %s, want %s", b, want)
	}
	var w wrap
	if err := json.Unmarshal(b, &w); err != nil || w.Trace != Mint(1, 0xabc) {
		t.Errorf("unmarshal = %+v, %v", w, err)
	}
	// The zero ID stays off the wire.
	b, _ = json.Marshal(wrap{})
	if string(b) != "{}" {
		t.Errorf("zero trace marshals to %s, want {}", b)
	}
}

func TestBusPublishStampsAndRetains(t *testing.T) {
	var now time.Duration
	b := NewBus(BusConfig{RingSize: 4, RDN: 2, Now: func() time.Duration { return now }})
	now = 5 * time.Millisecond
	b.Publish(Event{Kind: KindSpan, Trace: Mint(2, 1), Stage: "classify", Sub: "site1"})
	now = 7 * time.Millisecond
	// A publisher-stamped At and RDN survive untouched.
	b.Publish(Event{Kind: KindCycle, At: 6 * time.Millisecond, RDN: 1, Cycle: 9})
	evs := b.Events()
	if len(evs) != 2 {
		t.Fatalf("Events() returned %d events, want 2", len(evs))
	}
	if evs[0].Schema != SchemaVersion || evs[0].Seq != 1 || evs[0].At != 5*time.Millisecond || evs[0].RDN != 2 {
		t.Errorf("first event stamped wrong: %+v", evs[0])
	}
	if evs[1].Seq != 2 || evs[1].At != 6*time.Millisecond || evs[1].RDN != 1 {
		t.Errorf("pre-stamped event rewritten: %+v", evs[1])
	}
	if b.Seq() != 2 || b.Dropped() != 0 {
		t.Errorf("Seq/Dropped = %d/%d, want 2/0", b.Seq(), b.Dropped())
	}
}

func TestBusRingLapDropsWithoutSpill(t *testing.T) {
	b := NewBus(BusConfig{RingSize: 2, Now: func() time.Duration { return 0 }})
	for i := 0; i < 5; i++ {
		b.Publish(Event{Kind: KindFault})
	}
	if got := b.Dropped(); got != 3 {
		t.Errorf("Dropped = %d, want 3 (5 published into a 2-slot ring)", got)
	}
	if evs := b.Events(); len(evs) != 2 || evs[0].Seq != 4 || evs[1].Seq != 5 {
		t.Errorf("ring retains %+v, want seqs 4 and 5", evs)
	}
}

func TestBusSpillPreventsDropsAndRoundTrips(t *testing.T) {
	var spill bytes.Buffer
	b := NewBus(BusConfig{RingSize: 2, Spill: &spill, Now: func() time.Duration { return time.Millisecond }})
	for i := 0; i < 5; i++ {
		b.Publish(Event{Kind: KindBreaker, Node: i + 1, Stage: "open"})
	}
	if got := b.Dropped(); got != 0 {
		t.Errorf("Dropped = %d with a healthy spill, want 0", got)
	}
	if err := b.SpillErr(); err != nil {
		t.Fatalf("SpillErr: %v", err)
	}
	evs, err := ReadLog(&spill)
	if err != nil {
		t.Fatalf("ReadLog: %v", err)
	}
	if len(evs) != 5 {
		t.Fatalf("spill holds %d events, want 5", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) || ev.Node != i+1 || ev.Kind != KindBreaker {
			t.Errorf("spilled event %d = %+v", i, ev)
		}
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errSpill }

var errSpill = &json.UnsupportedValueError{Str: "spill failed"}

func TestBusSpillErrorCountsDrops(t *testing.T) {
	b := NewBus(BusConfig{RingSize: 1, Spill: failWriter{}, Now: func() time.Duration { return 0 }})
	b.Publish(Event{Kind: KindFault})
	b.Publish(Event{Kind: KindFault})
	if b.SpillErr() == nil {
		t.Fatal("spill failure not retained")
	}
	if got := b.Dropped(); got != 1 {
		t.Errorf("Dropped = %d after spill failed, want 1", got)
	}
}

func TestBusNilReceiver(t *testing.T) {
	var b *Bus
	b.Publish(Event{Kind: KindSpan})
	b.SetClock(func() time.Duration { return 0 })
	b.SetRDN(3)
	if b.Events() != nil || b.Seq() != 0 || b.Dropped() != 0 || b.RingSize() != 0 || b.SpillErr() != nil {
		t.Error("nil bus is not inert")
	}
}

func TestMergeLogsCausalOrder(t *testing.T) {
	mk := func(rdn int, seq uint64, at time.Duration) Event {
		return Event{Schema: SchemaVersion, Seq: seq, At: at, RDN: rdn, Kind: KindCycle}
	}
	a := []Event{mk(1, 1, 10), mk(1, 2, 30)}
	b := []Event{mk(2, 1, 10), mk(2, 2, 20)}
	got := MergeLogs(a, b)
	want := []Event{mk(1, 1, 10), mk(2, 1, 10), mk(2, 2, 20), mk(1, 2, 30)}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("MergeLogs = %+v\nwant %+v", got, want)
	}
	// Determinism: merging in any argument order yields the same stream.
	if again := MergeLogs(b, a); !reflect.DeepEqual(again, got) {
		t.Errorf("merge depends on argument order: %+v vs %+v", again, got)
	}
}

func TestLintLog(t *testing.T) {
	ok := []Event{
		{Schema: 1, Seq: 1, At: 1, RDN: 1, Kind: KindSpan, Trace: Mint(1, 1), Stage: "classify"},
		{Schema: 1, Seq: 2, At: 2, RDN: 1, Kind: KindSpan, Trace: Mint(1, 1), Stage: StageSettle, Detail: "served"},
		{Schema: 1, Seq: 1, At: 1, RDN: 2, Kind: KindTier, Detail: "takeover"},
	}
	if err := LintLog(ok); err != nil {
		t.Errorf("clean log flagged: %v", err)
	}
	bad := []struct {
		name string
		evs  []Event
		want string
	}{
		{"schema", []Event{{Schema: 99, Seq: 1, Kind: KindSpan, Trace: 1, Stage: "x"}}, "schema"},
		{"kind", []Event{{Schema: 1, Seq: 1, Kind: 0}}, "kind"},
		{"seq", []Event{
			{Schema: 1, Seq: 2, At: 1, RDN: 1, Kind: KindFault},
			{Schema: 1, Seq: 2, At: 2, RDN: 1, Kind: KindFault},
		}, "sequence"},
		{"time", []Event{
			{Schema: 1, Seq: 1, At: 5, RDN: 1, Kind: KindFault},
			{Schema: 1, Seq: 2, At: 4, RDN: 1, Kind: KindFault},
		}, "backwards"},
		{"traceless span", []Event{{Schema: 1, Seq: 1, Kind: KindSpan, Stage: "classify"}}, "trace ID"},
		{"stageless span", []Event{{Schema: 1, Seq: 1, Kind: KindSpan, Trace: 1}}, "stage"},
		{"outcomeless settle", []Event{{Schema: 1, Seq: 1, Kind: KindSpan, Trace: 1, Stage: StageSettle}}, "outcome"},
		{"double settle", []Event{
			{Schema: 1, Seq: 1, At: 1, Kind: KindSpan, Trace: 1, Stage: StageSettle, Detail: "served"},
			{Schema: 1, Seq: 2, At: 2, Kind: KindSpan, Trace: 1, Stage: StageSettle, Detail: "error"},
		}, "twice"},
	}
	for _, c := range bad {
		err := LintLog(c.evs)
		if err == nil {
			t.Errorf("%s: lint passed a bad log", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
	// Independent RDN streams may each settle the same trace once — a
	// handoff leaves a terminal outcome on both sides of the fence.
	handoff := []Event{
		{Schema: 1, Seq: 1, At: 1, RDN: 1, Kind: KindSpan, Trace: 7, Stage: StageSettle, Detail: "handed-off"},
		{Schema: 1, Seq: 1, At: 2, RDN: 2, Kind: KindSpan, Trace: 7, Stage: StageSettle, Detail: "served"},
	}
	if err := LintLog(handoff); err != nil {
		t.Errorf("cross-RDN settle flagged: %v", err)
	}
}

func TestEventLogRoundTrip(t *testing.T) {
	evs := []Event{
		{Schema: 1, Seq: 1, At: time.Second, RDN: 1, Kind: KindViolation, Sub: "site1",
			Detail: "open", Exemplars: []string{Mint(1, 5).String()}},
		{Schema: 1, Seq: 2, At: 2 * time.Second, RDN: 1, Kind: KindAdmin, Sub: "site4",
			Detail: "create:infeasible"},
	}
	var buf bytes.Buffer
	if err := WriteLog(&buf, evs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, evs) {
		t.Errorf("round trip = %+v\nwant %+v", back, evs)
	}
}

// TestBusPublishAllocs is the steady-state allocation gate: with no spill
// attached, publishing into a warm ring must not touch the heap.
func TestBusPublishAllocs(t *testing.T) {
	b := NewBus(BusConfig{RingSize: 64, Now: func() time.Duration { return 0 }})
	ev := Event{Kind: KindSpan, Trace: Mint(0, 1), Sub: "site1", Stage: "classify"}
	if n := testing.AllocsPerRun(1000, func() { b.Publish(ev) }); n != 0 {
		t.Errorf("Publish allocates %.1f/op in steady state, want 0", n)
	}
}

// BenchmarkObsPublish pins the publish hot path for make bench-obs: one
// ring publish, no spill — must report 0 allocs/op.
func BenchmarkObsPublish(b *testing.B) {
	bus := NewBus(BusConfig{RingSize: 4096, Now: func() time.Duration { return 0 }})
	ev := Event{Kind: KindSpan, Trace: Mint(0, 1), Sub: "site1", Stage: "classify"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bus.Publish(ev)
	}
}

// Append is String without the string: same digits, and nothing allocated
// when the buffer has room.
func TestTraceIDAppend(t *testing.T) {
	id := Mint(3, 0xabcdef012345)
	if got := string(id.Append([]byte("X: "))); got != "X: "+id.String() {
		t.Errorf("Append = %q, want the String form %q appended", got, id.String())
	}
	buf := make([]byte, 0, 32)
	if n := testing.AllocsPerRun(100, func() { buf = id.Append(buf[:0]) }); n != 0 {
		t.Errorf("Append into a buffer with room allocates %.0f times", n)
	}
}
