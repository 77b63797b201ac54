package persist

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"

	"cludistream/internal/coordinator"
	"cludistream/internal/gaussian"
)

// Coordinator checkpoint format: magic "CLUC", explicit little-endian
// binary like the site archive, with a whole-file CRC32 trailer so a
// flipped bit anywhere — not just in a field a validator happens to look
// at — surfaces as ErrBadFormat. A checkpoint carries everything the
// coordinator needs to resume exactly-once application after a crash: the
// model tree snapshot (mixtures, counters, grouping, work stats) and the
// full (site, epoch, seq) dedupe table.
var coordMagic = [4]byte{'C', 'L', 'U', 'C'}

const coordVersion = 1

// plausibleCount caps the model and group counts a loader accepts: their
// entries vary in size, so the count cannot be checked against the bytes
// left, as the fixed-size event and dedupe entries are.
const plausibleCount = 1 << 24

// DedupeEntry is one site's exactly-once watermark: the highest (epoch,
// seq) applied. Retransmitted frames at or below it are acked without
// re-applying.
type DedupeEntry struct {
	SiteID int32
	Epoch  uint32
	MaxSeq uint64
}

// CoordinatorState is the complete durable coordinator state: what a
// checkpoint stores and what recovery rebuilds before replaying the WAL
// tail.
type CoordinatorState struct {
	// Applied is the number of messages applied since the state store was
	// created (checkpoint continuity for logs and telemetry).
	Applied uint64
	// Snapshot is the coordinator's model tree.
	Snapshot *coordinator.Snapshot
	// Dedupe is the per-site watermark table, sorted by SiteID.
	Dedupe []DedupeEntry
}

// SaveCoordinatorState writes the checkpoint format.
func SaveCoordinatorState(w io.Writer, st *CoordinatorState) error {
	if st == nil || st.Snapshot == nil {
		return badFormat("nil coordinator state")
	}
	snap := st.Snapshot
	buf := append([]byte(nil), coordMagic[:]...)
	buf = appendU32(buf, coordVersion)
	buf = appendU32(buf, snap.Dim)
	buf = binary.LittleEndian.AppendUint64(buf, st.Applied)
	buf = appendU32(buf, snap.NextGroupID)
	for _, v := range statsFields(snap.Stats) {
		buf = appendU32(buf, v)
	}
	buf = appendU32(buf, len(snap.Models))
	for _, m := range snap.Models {
		if m.Mixture == nil {
			return errors.New("persist: nil mixture")
		}
		buf = appendU32(buf, m.SiteID)
		buf = appendU32(buf, m.ModelID)
		buf = appendU32(buf, m.Counter)
		buf = gaussian.AppendMixture(buf, m.Mixture)
	}
	buf = appendU32(buf, len(snap.Groups))
	for _, g := range snap.Groups {
		buf = appendU32(buf, g.ID)
		buf = appendU32(buf, len(g.Members))
		for _, mem := range g.Members {
			buf = appendU32(buf, mem.Key.SiteID)
			buf = appendU32(buf, mem.Key.ModelID)
			buf = appendU32(buf, mem.Key.Comp)
			buf = appendF64(buf, mem.MRemergeAtJoin)
		}
	}
	buf = appendU32(buf, len(st.Dedupe))
	for _, d := range st.Dedupe {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(d.SiteID))
		buf = binary.LittleEndian.AppendUint32(buf, d.Epoch)
		buf = binary.LittleEndian.AppendUint64(buf, d.MaxSeq)
	}
	// Trailer: CRC of everything above.
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	_, err := w.Write(buf)
	return err
}

// LoadCoordinatorState reads a checkpoint written by SaveCoordinatorState.
// It reads the whole input and verifies the CRC trailer before it parses
// a field. A CRC mismatch, wrong magic, an unknown version, truncation,
// implausible counts or invalid mixtures all return errors wrapping
// ErrBadFormat; I/O errors from the reader pass through untouched.
func LoadCoordinatorState(r io.Reader) (*CoordinatorState, error) {
	data, err := readInput(r)
	if err != nil {
		return nil, err
	}
	if len(data) < 4 {
		return nil, badFormat("truncated coordinator state (%d bytes)", len(data))
	}
	body := data[:len(data)-4]
	if stored, sum := binary.LittleEndian.Uint32(data[len(body):]), crc32.ChecksumIEEE(body); stored != sum {
		return nil, badFormat("checksum mismatch: stored %08x, computed %08x", stored, sum)
	}
	if len(body) < len(coordMagic) || [4]byte(body) != coordMagic {
		return nil, badFormat("bad coordinator-state magic %q", body[:min(len(body), len(coordMagic))])
	}
	in := &decoder{b: body[len(coordMagic):]}
	if ver := in.u32(); ver != coordVersion {
		return nil, badFormat("unsupported coordinator-state version %d", ver)
	}
	st := &CoordinatorState{Snapshot: &coordinator.Snapshot{}}
	snap := st.Snapshot
	snap.Dim, st.Applied, snap.NextGroupID = in.int(), in.u64(), in.int()
	var stats [statsFieldCount]int
	for i := range stats {
		stats[i] = in.int()
	}
	nModels := in.int()
	if err := in.check("header"); err != nil {
		return nil, err
	}
	if snap.Dim < 1 || snap.Dim > 1<<20 {
		return nil, badFormat("implausible dim %d", snap.Dim)
	}
	if snap.NextGroupID < 1 {
		return nil, badFormat("next group id %d", snap.NextGroupID)
	}
	for _, v := range stats {
		if v < 0 {
			return nil, badFormat("negative stats counter %d", v)
		}
	}
	snap.Stats = statsFromFields(stats)
	if nModels < 0 || nModels > plausibleCount {
		return nil, badFormat("implausible model count %d", nModels)
	}
	for i := 0; i < nModels; i++ {
		sm := coordinator.SnapshotModel{SiteID: in.int(), ModelID: in.int(), Counter: in.int()}
		if err := in.check("model list"); err != nil {
			return nil, err
		}
		if sm.Counter <= 0 {
			return nil, badFormat("model %d/%d counter %d", sm.SiteID, sm.ModelID, sm.Counter)
		}
		if sm.Mixture, err = in.mixture(); err != nil {
			return nil, err
		}
		snap.Models = append(snap.Models, sm)
	}
	nGroups := in.int()
	if err := in.check("group count"); err != nil {
		return nil, err
	}
	if nGroups < 0 || nGroups > plausibleCount {
		return nil, badFormat("implausible group count %d", nGroups)
	}
	for i := 0; i < nGroups; i++ {
		g := coordinator.SnapshotGroup{ID: in.int()}
		nMembers := in.int()
		if err := in.check("group list"); err != nil {
			return nil, err
		}
		if nMembers < 1 || nMembers > len(in.b)/20 {
			return nil, badFormat("member count %d in group %d, %d bytes left", nMembers, g.ID, len(in.b))
		}
		for j := 0; j < nMembers; j++ {
			var mem coordinator.SnapshotMember
			mem.Key = coordinator.MemberKey{SiteID: in.int(), ModelID: in.int(), Comp: in.int()}
			mem.MRemergeAtJoin = in.f64()
			if math.IsNaN(mem.MRemergeAtJoin) || mem.MRemergeAtJoin <= 0 {
				return nil, badFormat("member %v MRemergeAtJoin %v", mem.Key, mem.MRemergeAtJoin)
			}
			g.Members = append(g.Members, mem)
		}
		snap.Groups = append(snap.Groups, g)
	}
	nDedupe := in.int()
	if err := in.check("dedupe count"); err != nil {
		return nil, err
	}
	if nDedupe < 0 || nDedupe > len(in.b)/16 {
		return nil, badFormat("dedupe count %d, %d bytes left", nDedupe, len(in.b))
	}
	var prevSite int64 = math.MinInt64
	for i := 0; i < nDedupe; i++ {
		d := DedupeEntry{SiteID: int32(in.u32()), Epoch: in.u32(), MaxSeq: in.u64()}
		if int64(d.SiteID) <= prevSite {
			return nil, badFormat("dedupe table not strictly sorted at site %d", d.SiteID)
		}
		prevSite = int64(d.SiteID)
		st.Dedupe = append(st.Dedupe, d)
	}
	if len(in.b) != 0 {
		return nil, badFormat("%d trailing bytes before the checksum", len(in.b))
	}
	return st, nil
}

// statsFieldCount pins the serialized Stats layout; bump coordVersion when
// the struct grows.
const statsFieldCount = 9

func statsFields(s coordinator.Stats) [statsFieldCount]int {
	return [statsFieldCount]int{
		s.UpdatesHandled, s.NewModels, s.WeightUpdates, s.Deletions,
		s.Splits, s.Remerges, s.GroupsCreated, s.GroupsRemoved, s.SiteResets,
	}
}

func statsFromFields(f [statsFieldCount]int) coordinator.Stats {
	return coordinator.Stats{
		UpdatesHandled: f[0], NewModels: f[1], WeightUpdates: f[2], Deletions: f[3],
		Splits: f[4], Remerges: f[5], GroupsCreated: f[6], GroupsRemoved: f[7], SiteResets: f[8],
	}
}
