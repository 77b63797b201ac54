package persist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
)

// Write-ahead log format: a header (magic "CLUW", version, the checkpoint
// generation the log extends) followed by CRC-framed records, one per
// message applied since that checkpoint:
//
//	[len u32][crc32(payload) u32][payload]
//
// Replay is prefix-tolerant: a torn final record — the half-written frame
// a crash leaves behind — terminates replay silently (its byte count is
// reported so recovery can log it), while a corrupted *header* is a
// foreign or damaged file and returns ErrBadFormat. The per-record CRC
// guarantees replayed records are exactly the bytes appended: a record
// either replays intact or ends the log, never mutates.

var walMagic = [4]byte{'C', 'L', 'U', 'W'}

const (
	walVersion = 1
	// walHeaderSize is magic + version + generation.
	walHeaderSize = 4 + 4 + 8
	// walMaxRecord caps one record, matching netio's frame cap.
	walMaxRecord = 64 << 20
)

// FsyncMode selects the WAL durability/throughput trade-off.
type FsyncMode string

const (
	// FsyncAlways flushes and syncs after every record: an acknowledged
	// message is durable before the ack. The default.
	FsyncAlways FsyncMode = "always"
	// FsyncInterval syncs every Nth record: a crash can lose up to N-1
	// acknowledged messages.
	FsyncInterval FsyncMode = "interval"
	// FsyncNever leaves syncing to the OS (and Close): fastest, weakest.
	FsyncNever FsyncMode = "never"
)

// ParseFsyncMode validates a -fsync flag value; empty selects FsyncAlways.
func ParseFsyncMode(s string) (FsyncMode, error) {
	switch FsyncMode(s) {
	case "":
		return FsyncAlways, nil
	case FsyncAlways, FsyncInterval, FsyncNever:
		return FsyncMode(s), nil
	}
	return "", fmt.Errorf("persist: unknown fsync mode %q (want always, interval or never)", s)
}

// WAL is an append-only write-ahead log of applied coordinator messages.
// Not safe for concurrent use; the coordinator applies under a mutex and
// appends under the same one.
type WAL struct {
	f         *os.File
	w         *bufio.Writer
	mode      FsyncMode
	interval  int
	sinceSync int
	gen       uint64
	records   int
	bytes     int64
}

// CreateWAL creates (truncating) the log at path for the given checkpoint
// generation. interval is the records-per-sync cadence for FsyncInterval
// (default 32; ignored otherwise).
func CreateWAL(path string, gen uint64, mode FsyncMode, interval int) (*WAL, error) {
	if mode == "" {
		mode = FsyncAlways
	}
	if interval <= 0 {
		interval = 32
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	w := &WAL{f: f, w: bufio.NewWriter(f), mode: mode, interval: interval, gen: gen}
	hdr := appendU32(append([]byte(nil), walMagic[:]...), walVersion)
	hdr = binary.LittleEndian.AppendUint64(hdr, gen)
	if _, err := w.w.Write(hdr); err != nil {
		f.Close()
		return nil, err
	}
	if err := w.sync(); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// Append logs one applied payload, syncing per the fsync mode.
func (w *WAL) Append(payload []byte) error {
	if len(payload) == 0 {
		// A zero-length record is indistinguishable from a zero-filled
		// torn tail (crc32("") == 0), so the format forbids it.
		return fmt.Errorf("persist: empty WAL record")
	}
	if len(payload) > walMaxRecord {
		return fmt.Errorf("persist: WAL record of %d bytes exceeds cap %d", len(payload), walMaxRecord)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	if _, err := w.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.w.Write(payload); err != nil {
		return err
	}
	w.records++
	w.bytes += int64(len(hdr) + len(payload))
	switch w.mode {
	case FsyncAlways:
		return w.sync()
	case FsyncInterval:
		w.sinceSync++
		if w.sinceSync >= w.interval {
			return w.sync()
		}
	}
	return nil
}

func (w *WAL) sync() error {
	if err := w.w.Flush(); err != nil {
		return err
	}
	w.sinceSync = 0
	return w.f.Sync()
}

// Sync flushes buffered records and fsyncs the file.
func (w *WAL) Sync() error { return w.sync() }

// Records returns the number of records appended.
func (w *WAL) Records() int { return w.records }

// Bytes returns the record bytes appended (header included).
func (w *WAL) Bytes() int64 { return w.bytes }

// Gen returns the checkpoint generation this log extends.
func (w *WAL) Gen() uint64 { return w.gen }

// Close flushes, syncs and closes the log.
func (w *WAL) Close() error {
	if err := w.sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// Crash closes the file descriptor without flushing the write buffer —
// the test hook that models a process crash: records not yet flushed by
// the fsync mode are lost, exactly as an unsynced page cache would be.
func (w *WAL) Crash() error { return w.f.Close() }

// ReadWAL parses a log's bytes: header, then records until the data ends.
// A torn tail — a final record whose frame is incomplete, implausible, or
// fails its CRC — ends replay; its length comes back in torn. A missing
// or foreign header returns an error wrapping ErrBadFormat. The returned
// slices alias data.
func ReadWAL(data []byte) (gen uint64, records [][]byte, torn int, err error) {
	if len(data) < walHeaderSize {
		return 0, nil, 0, badFormat("truncated WAL header (%d bytes)", len(data))
	}
	if [4]byte(data[:4]) != walMagic {
		return 0, nil, 0, badFormat("bad WAL magic %q", data[:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != walVersion {
		return 0, nil, 0, badFormat("unsupported WAL version %d", v)
	}
	gen = binary.LittleEndian.Uint64(data[8:])
	rest := data[walHeaderSize:]
	for len(rest) > 0 {
		if len(rest) < 8 {
			return gen, records, len(rest), nil
		}
		n := binary.LittleEndian.Uint32(rest)
		sum := binary.LittleEndian.Uint32(rest[4:])
		if n == 0 || n > walMaxRecord || int(n) > len(rest)-8 {
			return gen, records, len(rest), nil
		}
		payload := rest[8 : 8+int(n)]
		if crc32.ChecksumIEEE(payload) != sum {
			// Bit rot mid-record; the length fields beyond it cannot be
			// trusted, so everything from here is tail.
			return gen, records, len(rest), nil
		}
		records = append(records, payload)
		rest = rest[8+int(n):]
	}
	return gen, records, 0, nil
}

// ReadWALFile reads and parses the log at path (see ReadWAL).
func ReadWALFile(path string) (gen uint64, records [][]byte, torn int, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, 0, err
	}
	return ReadWAL(data)
}
