// Package obs is the tier-wide observability spine: a compact request
// trace identity minted once at classify time and carried through
// admission, queueing, dispatch, relay, retry, RDN handoff and settlement,
// plus a unified, schema-versioned event bus into which every layer
// (telemetry lifecycle spans, flight-recorder cycles and tier events,
// fault injections, breaker transitions, admin-plane decisions,
// conformance violations) publishes causally-ordered events.
//
// The package is a leaf — it imports only the standard library — so any
// layer may publish without dependency cycles. Events are keyed by
// (trace | subscriber | cycle) and mergeable across RDNs: each bus stamps
// its own (RDN, Seq) pair, and MergeLogs restores one causal timeline by
// (At, RDN, Seq) exactly like the flight recorder's multi-log audit.
package obs

import (
	"fmt"
	"strconv"
)

// SchemaVersion is stamped on every published event. Readers (gagetrace
// explain/lint) refuse logs from a future schema instead of misparsing.
const SchemaVersion = 1

// TraceHeader carries the trace ID on relayed backend requests; backends
// echo it on their responses so the relay can confirm the identity made
// the round trip (and the client sees it on the final response).
const TraceHeader = "X-Gage-Trace"

// TraceID is the compact request identity: the minting RDN (+1, so the ID
// is never zero) in the top 16 bits and the RDN-local request sequence
// number in the low 48. One request keeps one TraceID across admission,
// queueing, dispatch, relay, retries and settlement; zero means "untraced".
type TraceID uint64

// reqMask selects the request-sequence bits of a TraceID.
const reqMask = 1<<48 - 1

// Mint builds the trace ID for request req classified by rdn. IDs are
// deterministic — the same (rdn, req) pair always mints the same ID — so
// replayed drills produce byte-identical event logs.
func Mint(rdn int, req uint64) TraceID {
	return TraceID((uint64(rdn)+1)<<48 | (req & reqMask))
}

// RDN returns the ID's minting RDN.
func (t TraceID) RDN() int { return int(uint64(t)>>48) - 1 }

// Req returns the ID's RDN-local request sequence number.
func (t TraceID) Req() uint64 { return uint64(t) & reqMask }

// String renders the ID as fixed-width hex, the wire form used in the
// X-Gage-Trace header, event logs and gagetrace output.
func (t TraceID) String() string {
	hex := t.hex()
	return string(hex[:])
}

// Append appends the String form to buf, for callers composing the header
// line into a buffer of their own.
func (t TraceID) Append(buf []byte) []byte {
	hex := t.hex()
	return append(buf, hex[:]...)
}

func (t TraceID) hex() (buf [16]byte) {
	const hexdigits = "0123456789abcdef"
	v := uint64(t)
	for i := 15; i >= 0; i-- {
		buf[i] = hexdigits[v&0xf]
		v >>= 4
	}
	return buf
}

// MarshalText renders the hex wire form (JSON encodes TraceID as a string).
func (t TraceID) MarshalText() ([]byte, error) {
	return []byte(t.String()), nil
}

// UnmarshalText parses the hex wire form.
func (t *TraceID) UnmarshalText(b []byte) error {
	id, err := ParseTraceID(string(b))
	if err != nil {
		return err
	}
	*t = id
	return nil
}

// ParseTraceID parses the hex wire form back into a TraceID.
func ParseTraceID(s string) (TraceID, error) {
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("obs: bad trace ID %q: %w", s, err)
	}
	return TraceID(v), nil
}
