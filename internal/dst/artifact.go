package dst

import (
	"encoding/json"
	"fmt"
	"io"

	"cludistream/internal/persist"
	"cludistream/internal/telemetry"
)

// Artifact serialization tags, held in the JSON envelope around it.
// Version 3 gave flat and tree runs one scenario shape — a topology,
// node outages and aggregator crashes — and one artifact; files of
// earlier versions no longer load (regenerate them from their seed).
const (
	artifactFormat = "cludistream-dst-artifact"
	formatVersion  = 3
)

// Core is the deterministic portion of a run: two replays of the same
// scenario must produce equal Cores bit for bit.
type Core struct {
	Seed           int64     `json:"seed"`
	Violation      Violation `json:"violation"`
	Updates        int       `json:"updates"`
	SimTime        float64   `json:"sim_time"`
	Fingerprint    uint64    `json:"fingerprint"`
	RefFingerprint uint64    `json:"ref_fingerprint"`
}

// Core projects the result onto its replay-stable fields (a zero
// Violation on a green run).
func (r *Result) Core() Core {
	c := Core{
		Seed:           r.Scenario.Seed,
		Updates:        r.Updates,
		SimTime:        r.SimTime,
		Fingerprint:    r.Fingerprint,
		RefFingerprint: r.RefFingerprint,
	}
	if r.Violation != nil {
		c.Violation = *r.Violation
	}
	return c
}

// Artifact is a self-contained failure report: everything needed to
// understand and replay a violation without the process that found it —
// the deterministic core, the full scenario, and the tail of the telemetry
// decision journal leading up to the failure. It is the one file format
// `dst run` and `dst shrink` write and `dst replay` and `dst shrink` read.
// Journal entries carry wall-clock timestamps, so replay equality is
// defined on Core, not on the journal.
type Artifact struct {
	Core
	Scenario Scenario          `json:"scenario"`
	Journal  []telemetry.Event `json:"journal,omitempty"`
	// Traces is the tracer snapshot at the violation: cumulative span
	// counts plus the slowest ingest→visible exemplar traces. Like the
	// journal it is debugging context, not part of the replay-stable Core.
	Traces *telemetry.TracerSnapshot `json:"traces,omitempty"`
}

// ToArtifact packages a violating result (nil for green runs).
func (r *Result) ToArtifact() *Artifact {
	if r.Violation == nil {
		return nil
	}
	return &Artifact{Core: r.Core(), Scenario: r.Scenario, Journal: r.Journal, Traces: r.Traces}
}

// envelope is an artifact file's outer frame: a format tag and version
// outside the payload, so a reader rejects foreign or outdated files
// before it parses a byte of the body.
type envelope struct {
	Format  string          `json:"format"`
	Version int             `json:"version"`
	Payload json.RawMessage `json:"payload"`
}

// WriteArtifact serializes an artifact inside its envelope.
func WriteArtifact(w io.Writer, a *Artifact) error {
	body, err := json.Marshal(a)
	if err != nil {
		return fmt.Errorf("dst: encoding artifact: %w", err)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(envelope{Format: artifactFormat, Version: formatVersion, Payload: body})
}

// ReadArtifact loads an artifact written by WriteArtifact and validates
// its scenario; foreign, outdated or corrupted inputs return
// persist.ErrBadFormat-wrapped errors, and I/O errors pass through.
func ReadArtifact(r io.Reader) (*Artifact, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("%w: %v", persist.ErrBadFormat, err)
	}
	if env.Format != artifactFormat {
		return nil, fmt.Errorf("%w: format %q, want %q", persist.ErrBadFormat, env.Format, artifactFormat)
	}
	if env.Version != formatVersion {
		return nil, fmt.Errorf("%w: version %d, want %d, the one scenario shape", persist.ErrBadFormat, env.Version, formatVersion)
	}
	if len(env.Payload) == 0 {
		return nil, fmt.Errorf("%w: missing payload", persist.ErrBadFormat)
	}
	var a Artifact
	if err := json.Unmarshal(env.Payload, &a); err != nil {
		return nil, fmt.Errorf("%w: %v", persist.ErrBadFormat, err)
	}
	if err := a.Scenario.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", persist.ErrBadFormat, err)
	}
	return &a, nil
}
