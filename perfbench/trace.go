package main

import (
	"bytes"
	"encoding/json"
	"io"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer's public seam. Parent is 0
// for a root; spans of one request share Req.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// N is the amount of work the call carried (ratings, lines); 0
	// when it has none.
	N int `json:"n,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. Nesting follows
// the calling goroutine: a span begun while another is open on the
// same goroutine becomes its child.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	// off suspends recording (while a service recovers).
	off atomic.Bool

	mu      sync.Mutex
	spans   []span
	stacks  map[int64][]*openSpan
	creator map[int64]int64 // goroutine → the goroutine that started it
}

type openSpan struct {
	t   *tracer
	s   span
	gid int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), stacks: make(map[int64][]*openSpan), creator: make(map[int64]int64)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// goid parses the current goroutine's id from its stack header.
func goid() int64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseInt(string(b), 10, 64)
	return id
}

// creatorOf parses the id of the goroutine that started the current
// one from the "created by ... in goroutine N" line of its stack.
func creatorOf() int64 {
	buf := make([]byte, 64<<10)
	b := buf[:runtime.Stack(buf, false)]
	i := bytes.LastIndex(b, []byte("in goroutine "))
	if i < 0 {
		return 0
	}
	b = b[i+len("in goroutine "):]
	if j := bytes.IndexByte(b, '\n'); j >= 0 {
		b = b[:j]
	}
	id, _ := strconv.ParseInt(string(bytes.TrimSpace(b)), 10, 64)
	return id
}

// begin opens a span as a child of the innermost span open on this
// goroutine or, with none open, on the goroutine that started it (a
// handler the server runs on a goroutine of its own still belongs to
// its request). Otherwise the span starts a new tree.
func (t *tracer) begin(name string) *openSpan {
	if t == nil || t.off.Load() {
		return nil
	}
	g := goid()
	o := &openSpan{t: t, gid: g, s: span{ID: t.ids.Add(1), Name: name}}
	t.mu.Lock()
	var parent *openSpan
	st := t.stacks[g]
	if len(st) == 0 {
		c, ok := t.creator[g]
		if !ok {
			t.mu.Unlock()
			c = creatorOf()
			t.mu.Lock()
			t.creator[g] = c
		}
		st = t.stacks[c]
	}
	if len(st) > 0 {
		parent = st[len(st)-1]
	}
	if parent != nil {
		o.s.Parent, o.s.Req = parent.s.ID, parent.s.Req
	} else {
		o.s.Req = o.s.ID
	}
	t.stacks[g] = append(t.stacks[g], o)
	t.mu.Unlock()
	o.s.Start = t.now()
	return o
}

// end closes the span, recording n units of work.
func (o *openSpan) end(n int) {
	if o == nil {
		return
	}
	t := o.t
	o.s.End = t.now()
	o.s.N = n
	t.mu.Lock()
	st := t.stacks[o.gid]
	for i := len(st) - 1; i >= 0; i-- {
		if st[i] == o {
			st = append(st[:i], st[i+1:]...)
			break
		}
	}
	if len(st) == 0 {
		delete(t.stacks, o.gid)
	} else {
		t.stacks[o.gid] = st
	}
	t.spans = append(t.spans, o.s)
	t.mu.Unlock()
}

// reset drops every recorded span.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSON writes every span, one JSON object per line.
func writeSpans(w io.Writer, spans []span) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// selfTimes attributes every instant of each root span's interval to
// exactly one layer. A span's self time is its duration minus the part
// its children cover; where sibling children overlap, the shared
// instants are split evenly between them. The self times of a tree
// therefore add up to its root's duration. Children are clipped to
// their parent's interval; spans whose parent is missing are ignored.
func selfTimes(spans []span) map[uint64]float64 {
	byID := make(map[uint64]*span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	// Clip each span to its ancestors' intervals.
	lo := make(map[uint64]int64, len(spans))
	hi := make(map[uint64]int64, len(spans))
	var clip func(s *span) bool
	clip = func(s *span) bool {
		if _, ok := lo[s.ID]; ok {
			return true
		}
		a, b := s.Start, s.End
		if s.Parent != 0 {
			p, ok := byID[s.Parent]
			if !ok || !clip(p) {
				return false
			}
			if pl := lo[p.ID]; a < pl {
				a = pl
			}
			if ph := hi[p.ID]; b > ph {
				b = ph
			}
		}
		if b < a {
			b = a
		}
		lo[s.ID], hi[s.ID] = a, b
		return true
	}
	trees := make(map[uint64][]*span)
	for i := range spans {
		s := &spans[i]
		if clip(s) {
			trees[s.Req] = append(trees[s.Req], s)
		}
	}

	self := make(map[uint64]float64, len(spans))
	for _, members := range trees {
		var cuts []int64
		for _, s := range members {
			cuts = append(cuts, lo[s.ID], hi[s.ID])
		}
		sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
		for _, s := range members {
			self[s.ID] += 0
		}
		for k := 0; k+1 < len(cuts); k++ {
			a, b := cuts[k], cuts[k+1]
			if a == b {
				continue
			}
			active := make(map[uint64]bool)
			for _, s := range members {
				if lo[s.ID] <= a && hi[s.ID] >= b {
					active[s.ID] = true
				}
			}
			busyParent := make(map[uint64]bool)
			for id := range active {
				busyParent[byID[id].Parent] = true
			}
			var frontier []uint64
			for id := range active {
				if !busyParent[id] {
					frontier = append(frontier, id)
				}
			}
			share := float64(b-a) / float64(len(frontier))
			for _, id := range frontier {
				self[id] += share
			}
		}
	}
	return self
}
