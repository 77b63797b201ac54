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
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"cludistream/internal/events"
	"cludistream/internal/gaussian"
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
	buf := append([]byte(nil), magic[:]...)
	for _, v := range []int{version, a.SiteID, a.Dim, a.ChunkSize, a.ChunksSeen, len(a.Models)} {
		buf = appendU32(buf, v)
	}
	for _, m := range a.Models {
		if m.Mixture == nil {
			return errors.New("persist: nil mixture")
		}
		buf = appendU32(buf, m.ID)
		buf = appendF64(buf, m.RefAvgLL)
		buf = appendU32(buf, m.Counter)
		buf = gaussian.AppendMixture(buf, m.Mixture)
	}
	buf = appendU32(buf, a.Events.Len())
	for _, e := range a.Events.All() {
		buf = appendU32(buf, e.ModelID)
		buf = appendU32(buf, e.StartChunk)
		buf = appendU32(buf, e.EndChunk)
	}
	_, err := w.Write(buf)
	return err
}

// Load reads an archive written by Save. Any input that is not a complete,
// well-formed archive — wrong magic, unknown version, truncation, or
// decoded values that cannot form a valid model — yields an error wrapping
// ErrBadFormat, as do a model whose dimension is not the header's and an
// event span that is malformed, overlaps its predecessor, ends after
// ChunksSeen or names a model not in the list. Errors from the reader
// itself (a failing disk, a closed pipe) pass through untouched so callers
// can tell corruption from I/O. It reads the whole input before parsing
// it, and allocates no more than the input holds.
func Load(r io.Reader) (*SiteArchive, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(data) < len(magic) || [4]byte(data) != magic {
		return nil, badFormat("bad magic %q", data[:min(len(data), len(magic))])
	}
	in := &decoder{b: data[len(magic):]}
	if ver := in.u32(); ver != version {
		return nil, badFormat("unsupported version %d", ver)
	}
	a := &SiteArchive{SiteID: in.int(), Dim: in.int()}
	a.ChunkSize, a.ChunksSeen = in.int(), in.int()
	nModels := in.int()
	if err := in.check("header"); err != nil {
		return nil, err
	}
	if nModels < 0 || nModels > plausibleCount {
		return nil, badFormat("implausible model count %d", nModels)
	}
	ids := map[int]bool{} // the model IDs, for the event table's check
	for i := 0; i < nModels; i++ {
		am := site.Model{ID: in.int(), RefAvgLL: in.f64(), Counter: in.int()}
		if am.Mixture, err = in.mixture(); err != nil {
			return nil, fmt.Errorf("model %d: %w", am.ID, err)
		}
		if d := am.Mixture.Dim(); d != a.Dim {
			return nil, badFormat("model %d has d=%d in a d=%d archive", am.ID, d, a.Dim)
		}
		ids[am.ID] = true
		a.Models = append(a.Models, am)
	}
	nEvents := in.int()
	if err := in.check("event count"); err != nil {
		return nil, err
	}
	if nEvents < 0 || nEvents > len(in.b)/12 {
		return nil, badFormat("event count %d, %d bytes left", nEvents, len(in.b))
	}
	for i := 0; i < nEvents; i++ {
		e := events.Entry{ModelID: in.int(), StartChunk: in.int(), EndChunk: in.int()}
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

func appendU32(buf []byte, v int) []byte {
	return binary.LittleEndian.AppendUint32(buf, uint32(v))
}

func appendF64(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

// decoder reads the fixed-width fields of an archive or checkpoint held in
// memory. A read past the end marks the input short and returns zero, so a
// parse checks for truncation once per record instead of once per field.
type decoder struct {
	b     []byte
	short bool
}

// zeros is what a read past the end returns.
var zeros [8]byte

func (d *decoder) next(n int) []byte {
	if len(d.b) < n {
		d.b, d.short = nil, true
		return zeros[:n]
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

func (d *decoder) u32() uint32  { return binary.LittleEndian.Uint32(d.next(4)) }
func (d *decoder) int() int     { return int(int32(d.u32())) }
func (d *decoder) u64() uint64  { return binary.LittleEndian.Uint64(d.next(8)) }
func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

// check reports a read past the end as a truncated input.
func (d *decoder) check(what string) error {
	if d.short {
		return badFormat("truncated reading %s", what)
	}
	return nil
}

// mixture parses a mixture body (gaussian.ParseMixture). The weights were
// normalized when the mixture was built; they are kept bit for bit so that
// a checkpoint round trip is the identity.
func (d *decoder) mixture() (*gaussian.Mixture, error) {
	if err := d.check("mixture"); err != nil {
		return nil, err
	}
	weights, comps, rest, err := gaussian.ParseMixture(d.b)
	if err != nil {
		return nil, badFormat("%v", err)
	}
	d.b = rest
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
