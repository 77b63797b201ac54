package netio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"cludistream/internal/sender"
	"cludistream/internal/transport"
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
// watermark status byte and round-trips writeWatermarkAck, and the sender
// Conn drives, handed the decoded (epoch, maxSeq) watermark on a
// reconnect, retransmits exactly the queued entries above it, in their
// original order. outbox scripts the sender: its first byte picks the
// epoch (1–4); every later byte enqueues one message, and an odd byte
// then delivers the outbox head, so the queue the watermark meets is any
// suffix of the sequence space.
func FuzzWatermarkAck(f *testing.F) {
	reply := func(status byte, epoch uint32, maxSeq uint64) []byte {
		b := []byte{status}
		b = binary.LittleEndian.AppendUint32(b, epoch)
		return binary.LittleEndian.AppendUint64(b, maxSeq)
	}
	f.Add(reply(ackWatermark, 1, 3), []byte{0, 1, 1, 0, 0, 0, 0})
	f.Add(reply(ackWatermarkTraced, 3, 0), []byte{1, 0, 0, 1})
	f.Add(reply(ackWatermark, 0, 0), []byte{0, 0})
	f.Add(append(reply(ackWatermark, 3, 7), 0xEE), []byte{2, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(reply(ackOK, 1, 1), []byte{0, 0})
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
		if len(outbox) == 0 {
			return
		}

		s := sender.New(sender.Config{Epoch: uint32(outbox[0]%4) + 1, Handshake: true})
		var queued []uint64 // the outbox's seqs, head first, as the test expects them
		now := 0.0
		var wmEpoch uint32
		var wmSeq uint64 // the first connection meets an empty watermark
		next := func() sender.Action {
			for {
				switch act := s.Next(now); act.Kind {
				case sender.Dial:
					s.OnConnected()
				case sender.Hello:
					s.OnWatermark(wmEpoch, wmSeq)
				default:
					return act
				}
			}
		}
		for i, b := range outbox[1:] {
			queued = append(queued, s.Enqueue(transport.Message{Kind: transport.MsgWeightUpdate, SiteID: 1, ModelID: int32(i), Count: 1}).Seq)
			if b%2 == 1 {
				if act := next(); act.Kind != sender.Transmit || act.Entry.Seq != queued[0] {
					t.Fatalf("delivering seq %d: action %+v", queued[0], act)
				}
				s.OnAck()
				queued = queued[1:]
			}
		}
		if len(queued) == 0 {
			return
		}
		// Break the connection and reconnect past the backoff: the new
		// connection's handshake meets the fuzzed watermark.
		if act := next(); act.Kind != sender.Transmit {
			t.Fatalf("queued %v: action %+v", queued, act)
		}
		s.OnError(now)
		now += 2 * sender.DefaultMaxBackoff
		wmEpoch, wmSeq = epoch, maxSeq
		senderEpoch := uint32(outbox[0]%4) + 1
		var want []uint64
		for _, seq := range queued {
			if senderEpoch > epoch || (senderEpoch == epoch && seq > maxSeq) {
				want = append(want, seq)
			}
		}
		var got []uint64
		for act := next(); act.Kind == sender.Transmit; act = next() {
			got = append(got, act.Entry.Seq)
			s.OnAck()
		}
		if len(got) != len(want) || s.Stats().HandshakePruned != len(queued)-len(want) {
			t.Fatalf("watermark (%d,%d) over epoch %d seqs %v: retransmitted %v, pruned %d; want %v",
				epoch, maxSeq, senderEpoch, queued, got, s.Stats().HandshakePruned, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("watermark (%d,%d): retransmitted %v, want %v", epoch, maxSeq, got, want)
			}
		}
	})
}
