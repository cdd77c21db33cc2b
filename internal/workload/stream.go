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
// caller still references.
type Stream struct {
	run time.Duration
	// heads is a min-heap of the sources that still have arrivals, keyed
	// (arrival, ID).
	heads []cursor
	total int
	slab  []Request
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
// has passed the end of the run. Requests are carved from slabs of slabSize
// and never reused: the simulator keeps the pointer in scheduler queues,
// flights and settlement books for as long as the request lives, and a slab
// is garbage once all of its requests are.
func (st *Stream) Next() (*Request, bool) {
	if len(st.heads) == 0 {
		return nil, false
	}
	if len(st.slab) == cap(st.slab) {
		st.slab = make([]Request, 0, slabSize)
	}
	st.slab = st.slab[:len(st.slab)+1]
	r := &st.slab[len(st.slab)-1]
	st.next(r)
	return r, true
}

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
