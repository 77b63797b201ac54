package netio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// FuzzReadFrame mirrors internal/transport's decoder fuzz: readFrame must
// never panic, never allocate more than the frame cap, and must round-trip
// anything writeFrame produced.
func FuzzReadFrame(f *testing.F) {
	frame := func(payload []byte) []byte {
		var buf bytes.Buffer
		if err := writeFrame(&buf, payload); err != nil {
			f.Fatalf("seed frame: %v", err)
		}
		return buf.Bytes()
	}
	f.Add(frame(nil))
	f.Add(frame([]byte{1}))
	f.Add(frame(bytes.Repeat([]byte{0xAB}, 300)))
	// Truncated: header promises 100 bytes, body holds 3.
	f.Add(append([]byte{0, 0, 0, 100}, 1, 2, 3))
	// Header-only, and a cut inside the header.
	f.Add([]byte{0, 0, 0, 5})
	f.Add([]byte{0, 0})
	// Oversized length prefix: must be rejected before allocation.
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(append([]byte{0x04, 0x00, 0x00, 0x01}, bytes.Repeat([]byte{0}, 64)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := readFrame(bytes.NewReader(data))
		if err != nil {
			if payload != nil {
				t.Fatal("non-nil payload alongside error")
			}
			return
		}
		// A successful read must agree with the header and re-encode to a
		// prefix of the input.
		if len(data) < 4 {
			t.Fatal("success from short input")
		}
		n := binary.BigEndian.Uint32(data[:4])
		if uint32(len(payload)) != n {
			t.Fatalf("payload %d bytes, header says %d", len(payload), n)
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, payload); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data[:4+len(payload)]) {
			t.Fatal("re-encoded frame differs from input prefix")
		}
	})
}

// TestReadFrameOversizedPrefix pins the property the fuzz seeds probe: a
// corrupt length prefix beyond maxFrameSize fails with ErrFrameTooLarge
// without attempting the allocation.
func TestReadFrameOversizedPrefix(t *testing.T) {
	for _, n := range []uint32{maxFrameSize + 1, 1 << 30, 0xFFFFFFFF} {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], n)
		_, err := readFrame(bytes.NewReader(hdr[:]))
		if !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("prefix %d: err = %v, want ErrFrameTooLarge", n, err)
		}
	}
	if err := writeFrame(io.Discard, make([]byte, maxFrameSize+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("writeFrame oversize: %v", err)
	}
}

// FuzzReadAck: the ack decoder accepts exactly one byte value as success.
func FuzzReadAck(f *testing.F) {
	f.Add([]byte{ackOK})
	f.Add([]byte{ackErr})
	f.Add([]byte{0x7F})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		err := readAck(bytes.NewReader(data))
		switch {
		case len(data) == 0:
			if err == nil {
				t.Fatal("ack from empty stream")
			}
		case data[0] == ackOK:
			if err != nil {
				t.Fatalf("ackOK rejected: %v", err)
			}
		case data[0] == ackErr:
			if !errors.Is(err, ErrRemote) {
				t.Fatalf("ackErr: err = %v, want ErrRemote", err)
			}
		default:
			if err == nil {
				t.Fatalf("invalid ack byte 0x%02x accepted", data[0])
			}
		}
	})
}

// FuzzWatermarkAck covers the client half of the restart handshake:
// readWatermarkAck accepts exactly the 13-byte replies that open with a
// watermark status byte, round-trips writeWatermarkAck, and pruneOutbox
// keeps exactly the queued entries above the decoded (epoch, maxSeq)
// watermark, in their original order. outbox encodes one queued entry per
// byte pair (epoch mod 4, seq mod 8) so entries straddle small watermarks.
func FuzzWatermarkAck(f *testing.F) {
	reply := func(status byte, epoch uint32, maxSeq uint64) []byte {
		b := []byte{status}
		b = binary.LittleEndian.AppendUint32(b, epoch)
		return binary.LittleEndian.AppendUint64(b, maxSeq)
	}
	f.Add(reply(ackWatermark, 1, 3), []byte{1, 1, 1, 2, 1, 3, 1, 4, 2, 1})
	f.Add(reply(ackWatermarkTraced, 2, 0), []byte{0, 7, 1, 5, 2, 0, 2, 1, 3, 3})
	f.Add(reply(ackWatermark, 0, 0), []byte{0, 0, 0, 1})
	f.Add(append(reply(ackWatermark, 3, 7), 0xEE), []byte{3, 7, 3, 6, 3, 8})
	f.Add(reply(ackOK, 1, 1), []byte{1, 1})
	f.Add(reply(ackWatermark, 1, 1)[:12], []byte{})
	f.Fuzz(func(t *testing.T, data, outbox []byte) {
		epoch, maxSeq, traced, err := readWatermarkAck(bytes.NewReader(data))
		valid := len(data) >= watermarkAckSize && (data[0] == ackWatermark || data[0] == ackWatermarkTraced)
		if (err == nil) != valid {
			t.Fatalf("reply % x: err = %v, want valid=%v", data, err, valid)
		}
		if err != nil {
			return
		}
		if traced != (data[0] == ackWatermarkTraced) {
			t.Fatalf("reply % x: traced = %v", data, traced)
		}
		var buf bytes.Buffer
		if err := writeWatermarkAck(&buf, epoch, maxSeq, traced); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), data[:watermarkAckSize]) {
			t.Fatalf("re-encoded % x, read % x", buf.Bytes(), data[:watermarkAckSize])
		}

		c := &Conn{}
		var want []pending
		for i := 0; i+1 < len(outbox); i += 2 {
			p := pending{payload: []byte{byte(i)}, epoch: uint32(outbox[i] % 4), seq: uint64(outbox[i+1] % 8)}
			c.outbox = append(c.outbox, p)
			if p.epoch > epoch || (p.epoch == epoch && p.seq > maxSeq) {
				want = append(want, p)
			}
		}
		total := len(c.outbox)
		c.pruneOutbox(epoch, maxSeq)
		if len(c.outbox) != len(want) || c.stats.HandshakePruned != total-len(want) {
			t.Fatalf("watermark (%d,%d): kept %d pruned %d of %d, want kept %d",
				epoch, maxSeq, len(c.outbox), c.stats.HandshakePruned, total, len(want))
		}
		for i, p := range c.outbox {
			if p.epoch != want[i].epoch || p.seq != want[i].seq || !bytes.Equal(p.payload, want[i].payload) {
				t.Fatalf("kept entry %d = %+v, want %+v", i, p, want[i])
			}
		}
	})
}
