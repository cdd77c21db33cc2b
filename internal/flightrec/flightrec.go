// Package flightrec is the feedback loop's flight recorder: it captures the
// scheduler's per-cycle state — balances, predicted charges, queue lengths,
// credits, dispatch counts by funding round, per-node outstanding load — into
// a fixed-size ring of CycleRecords, optionally spilling each record to a
// JSONL log, and audits the stream for guarantee conformance: a sliding-window
// delivered-versus-reserved GRPS check per subscriber with fast/slow
// burn-rate violation detection (package flightrec's Auditor).
//
// Recording is built for the scheduler's hot path: the ring slots are
// preallocated and reused, so committing a record in steady state performs no
// allocation, and a scheduler without a recorder attached pays a single nil
// check per tick.
package flightrec

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"gage/internal/obs"
	"gage/internal/qos"
)

// SubRecord is one subscriber's slice of a cycle record. Usage and Completed
// accumulate everything the accounting messages delivered since the previous
// record; the dispatch counts are the decisions made since then — on arrival
// between the two ticks and by this cycle's rounds — split by funding round.
// Reservation is embedded so a recorded log is self-describing — an offline
// audit needs no side-channel configuration.
type SubRecord struct {
	ID          qos.SubscriberID `json:"id"`
	Reservation qos.GRPS         `json:"res"`
	// Balance is the reserved-resource account after this cycle's credit,
	// dispatches and debits.
	Balance qos.Vector `json:"balance"`
	// Predicted is the EWMA per-request usage estimate.
	Predicted qos.Vector `json:"predicted"`
	// Credited is the effective credit granted since the previous record: the
	// balance delta, after clamping, of every credit settlement — this
	// cycle's reservation round and any made between ticks.
	Credited qos.Vector `json:"credited"`
	// Usage is the actual consumption reported since the previous record.
	Usage qos.Vector `json:"usage"`
	// QueueLen is the backlog left after this cycle's dispatch rounds.
	QueueLen int `json:"queueLen"`
	// Reserved and Spare count the dispatches since the previous record by
	// funding round; dispatches made on arrival are reservation-funded.
	Reserved int `json:"reserved"`
	Spare    int `json:"spare"`
	// Completed counts requests reported finished since the previous record.
	Completed int `json:"completed"`
	// Dropped is the cumulative queue-overflow drop counter.
	Dropped uint64 `json:"dropped"`
}

// NodeRecord is one node's slice of a cycle record.
type NodeRecord struct {
	ID          int        `json:"id"`
	Outstanding qos.Vector `json:"outstanding"`
	Drained     qos.Vector `json:"drained"`
	Weight      float64    `json:"weight"`
}

// TierEvent is a front-end-tier control event riding on a cycle record:
// partition takeovers, handbacks, crashes, recoveries and fencing decisions
// from the multi-RDN frontier. Events make the failover protocol auditable
// offline — `gagetrace audit` reads them from the same JSONL log as the
// per-cycle accounting.
type TierEvent struct {
	// Kind is one of the frontier kinds — "takeover", "handback", "crash",
	// "recover", "fence" — or an admission-plane kind: "sub-admit",
	// "sub-resize", "sub-remove" (Group carries the subscriber ID, From/To
	// the old/new reservation) and "node-add", "node-drain" (To carries the
	// node ID).
	Kind  string `json:"kind"`
	Group string `json:"group,omitempty"`
	From  int    `json:"from,omitempty"`
	To    int    `json:"to,omitempty"`
	Epoch uint64 `json:"epoch,omitempty"`
}

// CycleRecord is one scheduling cycle's snapshot of the feedback loop.
type CycleRecord struct {
	// Seq numbers records from 0 in commit order.
	Seq uint64 `json:"seq"`
	// At is the record's offset from the recorder's clock origin (run start).
	At time.Duration `json:"at"`
	// RDN identifies which front-end instance committed the record. Zero is
	// the single-RDN pipeline; multi-RDN logs merge several streams and the
	// auditor keys its ordering checks on this.
	RDN int `json:"rdn,omitempty"`
	// Subs and Nodes are in the scheduler's deterministic visit order.
	Subs  []SubRecord  `json:"subs"`
	Nodes []NodeRecord `json:"nodes"`
	// Events are tier control events observed since the previous record.
	Events []TierEvent `json:"events,omitempty"`
}

// clone deep-copies a record so readers never alias ring-owned slices.
func (c *CycleRecord) clone() CycleRecord {
	out := *c
	out.Subs = append([]SubRecord(nil), c.Subs...)
	out.Nodes = append([]NodeRecord(nil), c.Nodes...)
	if c.Events != nil {
		out.Events = append([]TierEvent(nil), c.Events...)
	}
	return out
}

// DefaultRingSize is the ring capacity when Config.RingSize is zero: at the
// default 10 ms scheduling cycle it retains a bit over ten seconds of cycles.
const DefaultRingSize = 1024

// Config assembles a Recorder.
type Config struct {
	// RingSize is the number of retained cycle records (DefaultRingSize when
	// zero or negative).
	RingSize int
	// Spill, when non-nil, receives every committed record as one JSON line,
	// synchronously inside Commit. Spilling costs encoding allocations — use
	// it for offline analysis runs, not for the allocation-free steady state.
	Spill io.Writer
	// Now is the record timestamp source, an offset from the caller's chosen
	// origin. Nil means wall time since the recorder's construction; the
	// simulator installs its virtual clock via SetClock.
	Now func() time.Duration
}

// Recorder is the fixed-size cycle-record ring. One writer (the scheduler's
// tick, via Begin/Commit) and any number of readers (Recent/Since) may use it
// concurrently.
type Recorder struct {
	mu   sync.Mutex
	ring []CycleRecord
	// seq is the number of committed records; the next record gets this Seq.
	seq uint64
	// cur is the slot handed out by Begin, nil between cycles.
	cur      *CycleRecord
	now      func() time.Duration
	enc      *json.Encoder
	spillErr error
	// rdn stamps every committed record; zero for the single-RDN pipeline.
	rdn int
	// bus, when set, receives one KindCycle event per committed record and
	// one KindTier event per tier annotation, stamped with the record's own
	// At and RDN so cycle and event timelines merge exactly.
	bus *obs.Bus

	// pend queues tier events annotated between cycles; Begin drains it into
	// the next record. Its own lock keeps Annotate callable while the ring
	// lock is held across a Begin/Commit window.
	pendMu sync.Mutex
	pend   []TierEvent
}

// NewRecorder builds a recorder.
func NewRecorder(cfg Config) *Recorder {
	n := cfg.RingSize
	if n <= 0 {
		n = DefaultRingSize
	}
	r := &Recorder{
		ring: make([]CycleRecord, n),
		now:  cfg.Now,
	}
	if r.now == nil {
		start := time.Now()
		r.now = func() time.Duration { return time.Since(start) }
	}
	if cfg.Spill != nil {
		r.enc = json.NewEncoder(cfg.Spill)
	}
	return r
}

// SetClock replaces the record timestamp source — the simulator points the
// recorder at its virtual clock so live and simulated logs share an origin
// convention (offset from run start).
func (r *Recorder) SetClock(now func() time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if now != nil {
		r.now = now
	}
}

// SetRDN sets the front-end id stamped on subsequent records. The multi-RDN
// tier gives each instance's recorder its RDN id so merged logs stay
// attributable; the default zero is the single-RDN pipeline.
func (r *Recorder) SetRDN(rdn int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rdn = rdn
}

// SetBus mirrors committed cycles and tier annotations onto the unified
// event bus, keyed by cycle sequence.
func (r *Recorder) SetBus(b *obs.Bus) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.bus = b
}

// Annotate queues a tier event for the next committed record. It is safe to
// call at any time, including while a Begin/Commit window is open elsewhere;
// the event rides on the next cycle to start. A nil recorder records nothing,
// so callers annotate without asking whether one is attached.
func (r *Recorder) Annotate(ev TierEvent) {
	if r == nil {
		return
	}
	r.pendMu.Lock()
	r.pend = append(r.pend, ev)
	r.pendMu.Unlock()
}

// Begin opens the next ring slot for writing and returns it with its Seq and
// At stamped and its Subs/Nodes reset to length zero (capacity retained, so
// steady-state appends allocate nothing). Queued annotations are drained
// into the slot. The recorder stays locked until Commit; the writer fills
// the slot in between.
func (r *Recorder) Begin() *CycleRecord {
	r.mu.Lock()
	slot := &r.ring[r.seq%uint64(len(r.ring))]
	slot.Seq = r.seq
	slot.At = r.now()
	slot.RDN = r.rdn
	slot.Subs = slot.Subs[:0]
	slot.Nodes = slot.Nodes[:0]
	slot.Events = slot.Events[:0]
	r.pendMu.Lock()
	if len(r.pend) > 0 {
		slot.Events = append(slot.Events, r.pend...)
		r.pend = r.pend[:0]
	}
	r.pendMu.Unlock()
	r.cur = slot
	return slot
}

// Commit publishes the record opened by Begin, spilling it to the JSONL log
// when one is configured, and unlocks the recorder.
func (r *Recorder) Commit() {
	if r.enc != nil && r.spillErr == nil {
		if err := r.enc.Encode(r.cur); err != nil {
			// Keep recording into the ring; the log is best-effort and the
			// first failure is retained for SpillErr.
			r.spillErr = err
		}
	}
	if r.bus != nil {
		for _, te := range r.cur.Events {
			r.bus.Publish(obs.Event{
				Kind:   obs.KindTier,
				At:     r.cur.At,
				RDN:    r.cur.RDN,
				Detail: te.Kind,
				Sub:    te.Group,
				From:   te.From,
				To:     te.To,
				Epoch:  te.Epoch,
			})
		}
		r.bus.Publish(obs.Event{
			Kind:  obs.KindCycle,
			At:    r.cur.At,
			RDN:   r.cur.RDN,
			Cycle: r.cur.Seq,
		})
	}
	r.cur = nil
	r.seq++
	r.mu.Unlock()
}

// Seq returns the number of committed records.
func (r *Recorder) Seq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// RingSize returns the ring capacity.
func (r *Recorder) RingSize() int { return len(r.ring) }

// SpillErr returns the first JSONL spill failure, if any.
func (r *Recorder) SpillErr() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spillErr
}

// Since returns deep copies of the committed records with Seq >= from, in
// order, plus the sequence number to pass next time and how many requested
// records were already overwritten (the ring lapped the reader). It is the
// auditor's incremental pull.
func (r *Recorder) Since(from uint64) (recs []CycleRecord, next uint64, dropped uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sinceLocked(from)
}

func (r *Recorder) sinceLocked(from uint64) (recs []CycleRecord, next uint64, dropped uint64) {
	n := uint64(len(r.ring))
	lo := from
	if lo > r.seq {
		lo = r.seq
	}
	if r.seq > n && lo < r.seq-n {
		dropped = r.seq - n - lo
		lo = r.seq - n
	}
	if lo < r.seq {
		recs = make([]CycleRecord, 0, r.seq-lo)
		for s := lo; s < r.seq; s++ {
			recs = append(recs, r.ring[s%n].clone())
		}
	}
	return recs, r.seq, dropped
}

// Recent returns deep copies of the most recent n committed records (all of
// them when n is zero or exceeds the retained count), oldest first.
func (r *Recorder) Recent(n int) []CycleRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	from := uint64(0)
	if n > 0 && r.seq > uint64(n) {
		from = r.seq - uint64(n)
	}
	recs, _, _ := r.sinceLocked(from)
	return recs
}

// WriteLog writes records as a JSONL cycle log — the same format Commit
// spills.
func WriteLog(w io.Writer, recs []CycleRecord) error {
	enc := json.NewEncoder(w)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			return fmt.Errorf("flightrec: write cycle log: %w", err)
		}
	}
	return nil
}

// ReadLog parses a JSONL cycle log, tolerating blank lines.
func ReadLog(rd io.Reader) ([]CycleRecord, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var out []CycleRecord
	line := 0
	for sc.Scan() {
		line++
		b := bytes.TrimSpace(sc.Bytes())
		if len(b) == 0 {
			continue
		}
		var rec CycleRecord
		if err := json.Unmarshal(b, &rec); err != nil {
			return nil, fmt.Errorf("flightrec: cycle log line %d: %w", line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("flightrec: read cycle log: %w", err)
	}
	return out, nil
}
