// Package persist serializes CluDistream state for offline use: a
// SiteArchive captures everything a remote site has learned — its model
// list with counters and reference likelihoods, and its event table — in a
// versioned binary format. An archive holds the same site.History as the
// live site, so it answers the same evolving-analysis queries (Section 7)
// through the same code: which model governed chunk n, and what mixture
// covered any past window.
//
// The format is explicit little-endian binary (not gob) so files are
// stable across Go versions and readable from other languages.
package persist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"cludistream/internal/events"
	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
	"cludistream/internal/site"
)

// Format constants.
var magic = [4]byte{'C', 'L', 'U', 'D'}

const version = 1

// ErrBadFormat is returned for files that are not CluDistream archives.
var ErrBadFormat = errors.New("persist: not a CluDistream archive")

// SiteArchive is a site's complete persisted state: its identity and its
// History, which answers the evolving-analysis queries.
type SiteArchive struct {
	SiteID int
	Dim    int
	site.History
}

// FromSite captures a snapshot of a live site. The mixtures are shared
// (immutable), so the snapshot is cheap.
func FromSite(s *site.Site) *SiteArchive {
	a := &SiteArchive{SiteID: s.ID(), History: s.History()}
	if len(a.Models) > 0 {
		a.Dim = a.Models[0].Mixture.Dim()
	}
	return a
}

// Save writes the archive.
func Save(w io.Writer, a *SiteArchive) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	writeU32(bw, version)
	writeU32(bw, uint32(a.SiteID))
	writeU32(bw, uint32(a.Dim))
	writeU32(bw, uint32(a.ChunkSize))
	writeU32(bw, uint32(a.ChunksSeen))
	writeU32(bw, uint32(len(a.Models)))
	for _, m := range a.Models {
		writeU32(bw, uint32(m.ID))
		writeF64(bw, m.RefAvgLL)
		writeU32(bw, uint32(m.Counter))
		if err := writeMixture(bw, m.Mixture); err != nil {
			return err
		}
	}
	writeU32(bw, uint32(a.Events.Len()))
	for _, e := range a.Events.All() {
		writeU32(bw, uint32(e.ModelID))
		writeU32(bw, uint32(e.StartChunk))
		writeU32(bw, uint32(e.EndChunk))
	}
	return bw.Flush()
}

// Load reads an archive written by Save. Any input that is not a complete,
// well-formed archive — wrong magic, unknown version, truncation, or
// decoded values that cannot form a valid model — yields an error wrapping
// ErrBadFormat, as do a model whose dimension is not the header's and an
// event span that is malformed, overlaps its predecessor, ends after
// ChunksSeen or names a model not in the list. Errors from the reader
// itself (a failing disk, a closed pipe) pass through untouched so callers
// can tell corruption from I/O.
func Load(r io.Reader) (*SiteArchive, error) {
	br := bufio.NewReader(r)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, readErr("magic", err)
	}
	if m != magic {
		return nil, badFormat("bad magic %q", m[:])
	}
	ver, err := readU32(br)
	if err != nil {
		return nil, readErr("version", err)
	}
	if ver != version {
		return nil, badFormat("unsupported version %d", ver)
	}
	a := &SiteArchive{}
	if a.SiteID, err = readInt(br); err != nil {
		return nil, readErr("header", err)
	}
	if a.Dim, err = readInt(br); err != nil {
		return nil, readErr("header", err)
	}
	if a.ChunkSize, err = readInt(br); err != nil {
		return nil, readErr("header", err)
	}
	if a.ChunksSeen, err = readInt(br); err != nil {
		return nil, readErr("header", err)
	}
	nModels, err := readInt(br)
	if err != nil {
		return nil, readErr("model count", err)
	}
	if nModels < 0 || nModels > 1<<24 {
		return nil, badFormat("implausible model count %d", nModels)
	}
	ids := map[int]bool{} // the model IDs, for the event table's check
	for i := 0; i < nModels; i++ {
		var am site.Model
		if am.ID, err = readInt(br); err != nil {
			return nil, readErr("model list", err)
		}
		if am.RefAvgLL, err = readF64(br); err != nil {
			return nil, readErr("model list", err)
		}
		if am.Counter, err = readInt(br); err != nil {
			return nil, readErr("model list", err)
		}
		if am.Mixture, err = readMixture(br); err != nil {
			return nil, fmt.Errorf("model %d: %w", am.ID, err)
		}
		if d := am.Mixture.Dim(); d != a.Dim {
			return nil, badFormat("model %d has d=%d in a d=%d archive", am.ID, d, a.Dim)
		}
		ids[am.ID] = true
		a.Models = append(a.Models, am)
	}
	nEvents, err := readInt(br)
	if err != nil {
		return nil, readErr("event count", err)
	}
	if nEvents < 0 || nEvents > 1<<24 {
		return nil, badFormat("implausible event count %d", nEvents)
	}
	for i := 0; i < nEvents; i++ {
		var e events.Entry
		if e.ModelID, err = readInt(br); err != nil {
			return nil, readErr("event table", err)
		}
		if e.StartChunk, err = readInt(br); err != nil {
			return nil, readErr("event table", err)
		}
		if e.EndChunk, err = readInt(br); err != nil {
			return nil, readErr("event table", err)
		}
		if err := a.Events.Append(e); err != nil {
			return nil, badFormat("%v", err)
		}
		if e.EndChunk > a.ChunksSeen || !ids[e.ModelID] {
			return nil, badFormat("event %v outside %d chunks seen or of an unknown model", e, a.ChunksSeen)
		}
	}
	return a, nil
}

// --- low-level encoding ---

func writeU32(w io.Writer, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	w.Write(b[:]) //nolint:errcheck — bufio defers errors to Flush
}

func writeF64(w io.Writer, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	w.Write(b[:]) //nolint:errcheck
}

func readU32(r io.Reader) (uint32, error) {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

func readInt(r io.Reader) (int, error) {
	v, err := readU32(r)
	return int(int32(v)), err
}

func readF64(r io.Reader) (float64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b[:])), nil
}

func writeMixture(w io.Writer, m *gaussian.Mixture) error {
	if m == nil {
		return errors.New("persist: nil mixture")
	}
	k, d := m.K(), m.Dim()
	writeU32(w, uint32(k))
	writeU32(w, uint32(d))
	for j := 0; j < k; j++ {
		writeF64(w, m.Weight(j))
	}
	for j := 0; j < k; j++ {
		for _, v := range m.Component(j).Mean() {
			writeF64(w, v)
		}
	}
	for j := 0; j < k; j++ {
		for _, v := range m.Component(j).Cov().Packed() {
			writeF64(w, v)
		}
	}
	return nil
}

func readMixture(r io.Reader) (*gaussian.Mixture, error) {
	k, err := readInt(r)
	if err != nil {
		return nil, readErr("mixture header", err)
	}
	d, err := readInt(r)
	if err != nil {
		return nil, readErr("mixture header", err)
	}
	if k < 1 || d < 1 || k > 1<<20 || d > 1<<20 {
		return nil, badFormat("implausible mixture K=%d d=%d", k, d)
	}
	weights := make([]float64, k)
	for j := range weights {
		if weights[j], err = readF64(r); err != nil {
			return nil, readErr("mixture weights", err)
		}
	}
	means := make([]linalg.Vector, k)
	for j := range means {
		means[j] = linalg.NewVector(d)
		for i := 0; i < d; i++ {
			if means[j][i], err = readF64(r); err != nil {
				return nil, readErr("mixture means", err)
			}
		}
	}
	comps := make([]*gaussian.Component, k)
	for j := range comps {
		packed := make([]float64, linalg.PackedLen(d))
		for i := range packed {
			if packed[i], err = readF64(r); err != nil {
				return nil, readErr("mixture covariances", err)
			}
		}
		c, err := gaussian.NewComponent(means[j], linalg.SymFromPacked(d, packed), 0)
		if err != nil {
			return nil, badFormat("invalid component: %v", err)
		}
		comps[j] = c
	}
	// The weights were normalized when the mixture was built; they are kept
	// bit for bit so that a checkpoint round trip is the identity.
	mix, err := gaussian.NewNormalizedMixture(weights, comps)
	if err != nil {
		return nil, badFormat("invalid mixture: %v", err)
	}
	return mix, nil
}

// badFormat reports malformed input, wrapping ErrBadFormat with detail.
func badFormat(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrBadFormat}, args...)...)
}

// readErr classifies a failed low-level read: running out of bytes means
// the input is a truncated archive (ErrBadFormat); anything else is a
// genuine I/O failure and passes through untouched.
func readErr(what string, err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return badFormat("truncated reading %s", what)
	}
	return err
}
