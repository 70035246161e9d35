package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files around the layer's public functions. Start and End are nanoseconds
// since the tracer was created; Count is the work the call covered
// (documents, pairs, notifications — named by the span), taken at the same
// boundary as the time so ratios are measured where the work happens.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Count  int64  `json:"count"`
}

// tracer appends spans to a preallocated in-memory slice; nothing is
// written until the workload ends. It is used from one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span under parent and returns its ID.
func (tr *tracer) begin(name string, parent int32) int32 {
	id := int32(len(tr.spans))
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(tr.t0))})
	return id
}

// end closes span id, attributing count units of work to it.
func (tr *tracer) end(id int32, count int64) {
	s := &tr.spans[id]
	s.End = int64(time.Since(tr.t0))
	s.Count = count
}

// layerTotal aggregates every span of one name.
type layerTotal struct {
	Spans int64 // calls
	Count int64 // work units
	Total int64 // ns, end − start summed
	Self  int64 // ns, Total minus the part child spans cover
}

// totals folds spans by name. A span's self time is its duration minus the
// length of the union of its children's intervals clipped to it, so
// overlapping or back-to-back children are never subtracted twice.
func totals(spans []span) map[string]layerTotal {
	children := make(map[int32][]int32)
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			children[p] = append(children[p], int32(i))
		}
	}
	out := make(map[string]layerTotal)
	for i := range spans {
		s := &spans[i]
		dur := s.End - s.Start
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		t := out[s.Name]
		t.Spans++
		t.Count += s.Count
		t.Total += dur
		t.Self += dur - covered
		out[s.Name] = t
	}
	return out
}

// durations returns the duration in nanoseconds of every span named name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for i := range spans {
		if spans[i].Name == name {
			out = append(out, float64(spans[i].End-spans[i].Start))
		}
	}
	return out
}

// traceFile is the on-disk form of one workload's traced run.
type traceFile struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Trees    map[string][]span `json:"trees"`
}

// writeTrace writes dir/trace-<workload>.json.
func writeTrace(dir string, tf traceFile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, "trace-"+tf.Workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	if err := json.NewEncoder(f).Encode(tf); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing %s: %w", path, err)
	}
	return nil
}
