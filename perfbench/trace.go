package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
)

// span is one timed call at a layer boundary, recorded from the
// benchmark's own code. Spans of one request share req; parent indexes
// the request's root span (-1 for the root itself).
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog is a bounded in-memory span buffer owned by one goroutine.
type spanLog struct {
	spans []span
	limit int
}

func newSpanLog(limit int) *spanLog { return &spanLog{limit: limit} }

// full reports whether another request no longer fits.
func (l *spanLog) full() bool { return l == nil || len(l.spans) >= l.limit }

// root starts a request's span tree and returns its index.
func (l *spanLog) root(name string, req, start, end int64) int {
	l.spans = append(l.spans, span{Name: name, Req: req, Parent: -1, Start: start, End: end})
	return len(l.spans) - 1
}

// child records a span caused by the span at index parent.
func (l *spanLog) child(parent int, name string, start, end int64) {
	p := l.spans[parent]
	l.spans = append(l.spans, span{Name: name, Req: p.Req, Parent: parent, Start: start, End: end})
}

// selfTimes sums, per span name, each span's duration minus the part
// of it covered by its children: the time spent in that layer itself.
func selfTimes(spans []span) map[string]spanStat {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make(map[string]spanStat)
	for i, s := range spans {
		self := (s.End - s.Start) - covered(s, spans, kids[i])
		st := out[s.Name]
		st.Count++
		st.TotalNs += s.End - s.Start
		st.SelfNs += self
		out[s.Name] = st
	}
	return out
}

type spanStat struct {
	Count   int64 `json:"count"`
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"`
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's interval.
func covered(p span, spans []span, kids []int) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(spans[k].Start, p.Start), min(spans[k].End, p.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = p.Start
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// writeTrace writes the traced run's record: stamp, per-layer metrics,
// self time per span name, and the kept spans.
func writeTrace(path string, doc map[string]any, spans []span) error {
	doc["self_time"] = selfTimes(spans)
	doc["spans"] = spans
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
