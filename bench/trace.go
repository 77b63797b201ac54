package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer's exported function, recorded by
// the benchmark around the call (spans inside the program are a later
// change). Parent is the ID of the span that caused it, 0 for a root;
// spans of one chunk share Site and Chunk.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Site   int    `json:"site"`
	Chunk  int    `json:"chunk"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog is an in-memory span recorder owned by one goroutine; logs are
// merged and written when the benchmark ends.
type spanLog struct {
	epoch time.Time
	site  int
	spans []span
}

func newSpanLog(epoch time.Time, site int) *spanLog {
	return &spanLog{epoch: epoch, site: site, spans: make([]span, 0, 1<<14)}
}

// begin opens a span and returns its ID (index+1 within this log).
func (l *spanLog) begin(name string, parent, chunk int) int {
	l.spans = append(l.spans, span{
		ID: len(l.spans) + 1, Parent: parent, Name: name, Site: l.site, Chunk: chunk,
		Start: int64(time.Since(l.epoch)),
	})
	return len(l.spans)
}

// end closes span id and returns its duration.
func (l *spanLog) end(id int) time.Duration {
	s := &l.spans[id-1]
	s.End = int64(time.Since(l.epoch))
	return time.Duration(s.End - s.Start)
}

// writeSpans merges the logs (IDs made unique by offsetting) into
// bench/results/trace-<workload>.json.
func writeSpans(dir, workload string, logs ...*spanLog) error {
	var all []span
	for _, l := range logs {
		off := len(all)
		for _, s := range l.spans {
			s.ID += off
			if s.Parent != 0 {
				s.Parent += off
			}
			all = append(all, s)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+workload+".json"))
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(all); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
