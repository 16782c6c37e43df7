package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share its job id; parent is the index of the enclosing span, -1 for a
// root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Job    string `json:"job,omitempty"`
	Self   int64  `json:"self_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer records spans in memory for the traced pass. A nil *tracer is
// the untraced pass: every method is a no-op, so the two passes run the
// same code.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// begin opens a span and returns its index; end closes it.
func (t *tracer) begin(name string, parent int, job string) int {
	if t == nil {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start, Parent: parent, Job: job})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// setJob labels a span with its job id once the id is known (a submit
// learns it from the response).
func (t *tracer) setJob(id int, job string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id].Job = job
	t.mu.Unlock()
}

// add records a finished span and returns its index.
func (t *tracer) add(s span) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// finish links every parentless span that carries a job id (the
// transport's and the middleware's) to the innermost longer span of the
// same job enclosing it, fills in self times, and returns the spans.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	byJob := make(map[string][]int)
	for i, s := range t.spans {
		if s.Job != "" {
			byJob[s.Job] = append(byJob[s.Job], i)
		}
	}
	for i, s := range t.spans {
		if s.Parent >= 0 || s.Job == "" {
			continue
		}
		best := -1
		for _, c := range byJob[s.Job] {
			cs := t.spans[c]
			longer := cs.dur() > s.dur() || (cs.dur() == s.dur() && c < i)
			if c != i && longer && cs.Start <= s.Start && s.End <= cs.End && (best < 0 || cs.dur() < t.spans[best].dur()) {
				best = c
			}
		}
		t.spans[i].Parent = best
	}
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range t.spans {
		t.spans[i].Self = selfTime(t.spans[i], children[i])
	}
	return t.spans
}

// selfTime is the parent's duration minus the part of its interval that
// the union of its children covers.
func selfTime(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if lo < hi {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, curLo, curHi int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			covered += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		covered += curHi - curLo
	}
	return parent.dur() - covered
}

// durations returns the durations in milliseconds of the spans named
// name.
func durationsMS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

// writeTrace writes the spans as a JSON artifact.
func writeTrace(path string, header map[string]any, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	doc := map[string]any{"run": header, "spans": spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// tracingHandler is the benchmark's middleware around the server: it
// records one span per request, named by route and labelled with the
// job id (read from the path, or from the response of a submit).
type tracingHandler struct {
	next http.Handler
	tr   *tracer
}

// captureWriter keeps a copy of a small response body.
type captureWriter struct {
	http.ResponseWriter
	buf bytes.Buffer
}

func (c *captureWriter) Write(b []byte) (int, error) {
	c.buf.Write(b)
	return c.ResponseWriter.Write(b)
}

func (h *tracingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := h.tr.now()
	name, job := routeOf(r)
	var cw *captureWriter
	if name == "server.submit" {
		cw = &captureWriter{ResponseWriter: w}
		w = cw
	}
	h.next.ServeHTTP(w, r)
	if cw != nil {
		var info struct {
			ID string `json:"id"`
		}
		if json.Unmarshal(cw.buf.Bytes(), &info) == nil {
			job = info.ID
		}
	}
	h.tr.add(span{Name: name, Start: start, End: h.tr.now(), Parent: -1, Job: job})
}

// routeOf names a request by the server route it hits.
func routeOf(r *http.Request) (name, job string) {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/v1/jobs":
		return "server.submit", ""
	case r.Method == http.MethodGet && strings.HasPrefix(p, "/v1/jobs/") && strings.HasSuffix(p, "/result"):
		return "server.result", strings.TrimSuffix(strings.TrimPrefix(p, "/v1/jobs/"), "/result")
	case r.Method == http.MethodGet && strings.HasPrefix(p, "/v1/jobs/"):
		return "server.status", strings.TrimPrefix(p, "/v1/jobs/")
	case r.Method == http.MethodPut && strings.HasPrefix(p, "/v1/snapshots/"):
		return "server.put_snapshot", ""
	default:
		return "server.other", ""
	}
}
