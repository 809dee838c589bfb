package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer's public function, recorded by
// the harness from outside the layer. Parent is the ID of the span
// that caused it (-1 for a root); spans of one op share Op.
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
}

// tracer keeps spans in memory until the run ends. It is used from the
// harness goroutine only. A nil tracer records nothing, so the fresh
// pass that counts packets for an untraced run shares the traced
// pass's code.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, StartNS: time.Since(t.t0).Nanoseconds(), Parent: parent, Op: op})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].EndNS = time.Since(t.t0).Nanoseconds()
}

// total is the summed duration of every span called name.
func (t *tracer) total(name string) (ns int64) {
	if t == nil {
		return 0
	}
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.EndNS - s.StartNS
		}
	}
	return ns
}

// selfNS is a span's duration minus the part of it its child spans
// cover. Children may overlap one another (two lanes in flight), so
// the covered part is the length of the union of their intervals
// clipped to the parent, not the sum of their durations.
func (t *tracer) selfNS(id int) int64 {
	p := t.spans[id]
	type iv struct{ lo, hi int64 }
	var kids []iv
	for _, s := range t.spans {
		if s.Parent != id {
			continue
		}
		lo, hi := s.StartNS, s.EndNS
		if lo < p.StartNS {
			lo = p.StartNS
		}
		if hi > p.EndNS {
			hi = p.EndNS
		}
		if hi > lo {
			kids = append(kids, iv{lo, hi})
		}
	}
	sort.Slice(kids, func(a, b int) bool { return kids[a].lo < kids[b].lo })
	var covered, edge int64
	edge = p.StartNS
	for _, k := range kids {
		if k.hi <= edge {
			continue
		}
		if k.lo > edge {
			edge = k.lo
		}
		covered += k.hi - edge
		edge = k.hi
	}
	return p.EndNS - p.StartNS - covered
}

// write stores the spans as JSON lines, each with its self time.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		line := struct {
			span
			SelfNS int64 `json:"self_ns"`
		}{s, t.selfNS(s.ID)}
		if err := enc.Encode(line); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
