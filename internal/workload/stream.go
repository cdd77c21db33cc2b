package workload

import "time"

// slabSize is how many requests a Stream carves from one allocation.
const slabSize = 256

// cursor is one source's place in a Stream: the arrival offset and ID of the
// request it yields next.
type cursor struct {
	src Source
	at  time.Duration
	id  uint64
}

func (c *cursor) before(o *cursor) bool {
	if c.at != o.at {
		return c.at < o.at
	}
	return c.id < o.id
}

// Stream is the arrival-ordered merge of several sources over [0, run), as
// the RDN would observe them on the wire, produced one request at a time: it
// yields exactly the requests of Merge over each source's Schedule — IDs
// running on from one source to the next, ties broken by ID — without ever
// holding the trace. Memory is one cursor per source plus the requests the
// caller has pulled and not yet given back with Release: what a releasing
// consumer has in hand, however long the run.
type Stream struct {
	run time.Duration
	// heads is a min-heap of the sources that still have arrivals, keyed
	// (arrival, ID).
	heads []cursor
	total int
	// slab is being carved; free holds released records, handed out first.
	slab            []Request
	free            []*Request
	slabs, released int
}

// NewStream starts the merged stream of sources over [0, run), numbering
// requests from firstID. Source j's IDs follow the last ID of source j−1,
// so every source's arrival process is run twice: once to count its
// arrivals, then — rewound — to generate them.
func NewStream(sources []Source, run time.Duration, firstID uint64) *Stream {
	st := &Stream{run: run, heads: make([]cursor, 0, len(sources))}
	id := firstID
	for _, src := range sources {
		src.Arrivals.Rewind()
		n := 0
		for t := src.Arrivals.NextGap(); t < run; t += src.Arrivals.NextGap() {
			n++
		}
		src.Arrivals.Rewind()
		if at := src.Arrivals.NextGap(); at < run {
			st.heads = append(st.heads, cursor{src: src, at: at, id: id})
		}
		st.total += n
		id += uint64(n)
	}
	for i := len(st.heads)/2 - 1; i >= 0; i-- {
		st.siftDown(i)
	}
	return st
}

// Len returns how many requests the stream yields in all.
func (st *Stream) Len() int { return st.total }

// Next returns the next request in arrival order, or false once every source
// has passed the end of the run. The record is the caller's until it passes
// it to Release: a released one when there is one, else carved from a slab of
// slabSize, which is garbage once a caller that never releases has dropped
// all of its requests.
func (st *Stream) Next() (*Request, bool) {
	if len(st.heads) == 0 {
		return nil, false
	}
	if len(st.free) == 0 {
		if len(st.slab) == cap(st.slab) {
			st.slab = make([]Request, 0, slabSize)
			st.slabs++
		}
		st.slab = st.slab[:len(st.slab)+1]
		st.free = append(st.free, &st.slab[len(st.slab)-1])
	}
	r := st.free[len(st.free)-1]
	st.free = st.free[:len(st.free)-1]
	st.next(r)
	return r, true
}

// Release gives a record Next returned back to the stream, which zeroes it
// and will hand it out again. Only the holder of the last reference may call
// it, once (the simulator: where a request's one flight ends or the front
// end turns it away); nobody has to — an unreleased record is plain garbage.
func (st *Stream) Release(r *Request) {
	*r = Request{}
	st.free = append(st.free, r)
	st.released++
}

// Released and Records return how many records have been given back and how
// many were ever carved, a slab at a time.
func (st *Stream) Released() int { return st.released }
func (st *Stream) Records() int  { return st.slabs * slabSize }

// next writes the next request into r and advances its source.
func (st *Stream) next(r *Request) bool {
	if len(st.heads) == 0 {
		return false
	}
	c := &st.heads[0]
	*r = c.src.Gen.Next()
	r.ID, r.Subscriber, r.Arrival = c.id, c.src.Subscriber, c.at
	c.id++
	c.at += c.src.Arrivals.NextGap()
	if c.at >= st.run {
		last := len(st.heads) - 1
		st.heads[0] = st.heads[last]
		st.heads[last] = cursor{}
		st.heads = st.heads[:last]
	}
	st.siftDown(0)
	return true
}

func (st *Stream) siftDown(i int) {
	h := st.heads
	for {
		least := i
		for k := 2*i + 1; k <= 2*i+2 && k < len(h); k++ {
			if h[k].before(&h[least]) {
				least = k
			}
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}
