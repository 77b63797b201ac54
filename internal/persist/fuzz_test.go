package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"testing"

	"cludistream/internal/events"
	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
	"cludistream/internal/site"
)

// rawArchive writes a with the given event table in place of its own,
// bypassing events.List's checks, so a test can hand Load a table the live
// site could never produce.
func rawArchive(t testing.TB, a *SiteArchive, spans []events.Entry) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, a); err != nil {
		t.Fatal(err)
	}
	out := buf.Bytes()[:buf.Len()-4] // drop the empty table's count
	out = binary.LittleEndian.AppendUint32(out, uint32(len(spans)))
	for _, e := range spans {
		for _, v := range []int{e.ModelID, e.StartChunk, e.EndChunk} {
			out = binary.LittleEndian.AppendUint32(out, uint32(v))
		}
	}
	return out
}

func span(id, start, end int) events.Entry {
	return events.Entry{ModelID: id, StartChunk: start, EndChunk: end}
}

// oneModel is a header-d archive holding one d-dimensional model.
func oneModel(header, d, chunksSeen int) *SiteArchive {
	mix := gaussian.MustMixture([]float64{1}, []*gaussian.Component{gaussian.Spherical(linalg.NewVector(d), 1)})
	return &SiteArchive{SiteID: 1, Dim: header, History: site.History{
		Models: []site.Model{{ID: 1, Counter: 10, Mixture: mix}}, ChunksSeen: chunksSeen, ChunkSize: 10,
	}}
}

// badArchives are archives Load must refuse: a model wider than the
// header's d (which used to load, and then panic when scored); an event
// table of three bad spans (which used to load, and then answer ModelAt(2)
// from the span running past the end); and one of each defect alone — a
// span past ChunksSeen, a span of a model not in the list, a malformed
// span, overlapping spans.
func badArchives(t testing.TB) map[string][]byte {
	good := oneModel(2, 2, 9)
	return map[string][]byte{
		"model wider than header": rawArchive(t, oneModel(2, 4, 3), nil),
		"three bad spans":         rawArchive(t, oneModel(2, 2, 3), []events.Entry{span(1, 1, 9), span(7, 2, 3), span(1, 5, 1)}),
		"span past chunks seen":   rawArchive(t, oneModel(2, 2, 3), []events.Entry{span(1, 1, 4)}),
		"unknown model":           rawArchive(t, good, []events.Entry{span(1, 1, 2), span(7, 3, 4)}),
		"malformed span":          rawArchive(t, good, []events.Entry{span(1, 5, 1)}),
		"overlapping spans":       rawArchive(t, good, []events.Entry{span(1, 1, 4), span(1, 4, 6)}),
	}
}

// cutAfterMeans returns a site archive and a coordinator checkpoint, each
// holding one K = 1, d-dimensional model whose input ends right after the
// mean: the header promises a d(d+1)/2 covariance that is not there. The
// checkpoint carries a valid CRC trailer over what is there, so its parse
// gets as far as the archive's.
func cutAfterMeans(d int) (archive, checkpoint []byte) {
	mixture := func(buf []byte) []byte {
		buf = appendF64(appendU32(appendU32(buf, 1), d), 1) // K, d, weight
		return append(buf, make([]byte, 8*d)...)            // the mean
	}
	archive = append([]byte(nil), magic[:]...)
	for _, v := range []int{version, 1, d, 10, 0, 1, 1} { // version … model count, model ID
		archive = appendU32(archive, v)
	}
	archive = mixture(appendU32(appendF64(archive, 0), 1)) // RefAvgLL, counter
	checkpoint = appendU32(appendU32(append([]byte(nil), coordMagic[:]...), coordVersion), d)
	checkpoint = appendU32(binary.LittleEndian.AppendUint64(checkpoint, 0), 1) // applied, next group ID
	for _, v := range []int{0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1} {           // stats, model count, site, model, counter
		checkpoint = appendU32(checkpoint, v)
	}
	checkpoint = mixture(checkpoint)
	checkpoint = binary.LittleEndian.AppendUint32(checkpoint, crc32.ChecksumIEEE(checkpoint))
	return archive, checkpoint
}

// TestLoadersBoundAllocation: a loader given a truncated model must
// refuse it with ErrBadFormat before allocating what the header promises.
// Cut after the mean, a d = 4096 model's 33 kB of input used to allocate
// the 67 MB its covariance would take; at the accepted ceiling d = 2²⁰ an
// 8 MiB input would ask for terabytes. The bound is 2× the input (the
// loaders read it whole, in one allocation of its size) plus 64 KiB.
func TestLoadersBoundAllocation(t *testing.T) {
	loaders := map[string]func([]byte) error{
		"Load": func(b []byte) error { _, err := Load(bytes.NewReader(b)); return err },
		"LoadCoordinatorState": func(b []byte) error {
			_, err := LoadCoordinatorState(bytes.NewReader(b))
			return err
		},
	}
	for _, d := range []int{2048, 4096} {
		archive, checkpoint := cutAfterMeans(d)
		for name, data := range map[string][]byte{"Load": archive, "LoadCoordinatorState": checkpoint} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := loaders[name](data)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrBadFormat) {
				t.Errorf("%s, d=%d: err = %v, want ErrBadFormat", name, d, err)
			}
			if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(2*len(data)+64<<10); got > limit {
				t.Errorf("%s, d=%d: %d bytes of input allocated %d bytes, limit %d", name, d, len(data), got, limit)
			}
		}
	}
}

func TestLoadRejectsInconsistentArchives(t *testing.T) {
	for name, data := range badArchives(t) {
		if a, err := Load(bytes.NewReader(data)); !errors.Is(err, ErrBadFormat) {
			t.Errorf("%s: Load = %v, %v; want ErrBadFormat", name, a, err)
		}
	}
	if _, err := Load(bytes.NewReader(rawArchive(t, oneModel(2, 2, 9), []events.Entry{span(1, 1, 4), span(1, 5, 9)}))); err != nil {
		t.Fatalf("consistent archive refused: %v", err)
	}
}

// FuzzLoad feeds arbitrary bytes to the archive loader: it must never
// panic or over-allocate, every rejection must wrap ErrBadFormat (the
// input is in memory, so no genuine I/O error can occur), accepted
// archives must round-trip, and their queries must answer as the oracle's
// without panicking (checkArchive).
func FuzzLoad(f *testing.F) {
	// Seed with a small real archive and corruptions of it.
	a := &SiteArchive{SiteID: 1, Dim: 2, History: site.History{ChunkSize: 10, ChunksSeen: 3}}
	var buf bytes.Buffer
	if err := Save(&buf, a); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("CLUD"))
	f.Add(valid[:len(valid)/2])
	flipped := append([]byte(nil), valid...)
	flipped[5] ^= 0xFF
	f.Add(flipped)
	bad := badArchives(f)
	f.Add(bad["model wider than header"])
	f.Add(bad["three bad spans"])
	for _, d := range []int{2048, 4096} {
		archive, _ := cutAfterMeans(d)
		f.Add(archive)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Load(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("corrupted input rejected with %v, want an ErrBadFormat-wrapped error", err)
			}
			return
		}
		checkArchive(t, got)
		var out bytes.Buffer
		if err := Save(&out, got); err != nil {
			t.Fatalf("accepted archive failed to save: %v", err)
		}
		if _, err := Load(&out); err != nil {
			t.Fatalf("re-load failed: %v", err)
		}
	})
}
