// Package netio is the real-network runtime of CluDistream: the same
// site/coordinator protocol that internal/netsim simulates, carried over
// TCP. A coordinator process runs a Server; each remote site runs a Client
// that wraps its site.Site and ships every model update as a
// length-prefixed frame of the internal/transport wire format.
//
// The protocol is deliberately simple and synchronous: each frame is
// acknowledged with a single status byte before the next is sent. Model
// updates are rare (that is the whole point of test-and-cluster), so the
// round trip is irrelevant to throughput, and synchronous acks give the
// client immediate, per-message error reporting. A hello frame
// (transport.MsgHello), sent once per connection by sites that identify
// themselves, is instead answered with a 13-byte watermark ack carrying
// the coordinator's durable (epoch, maxSeq) high-water mark for that
// site, so after a coordinator restart the site retransmits only the
// suffix of its outbox the recovered state has not applied.
//
// # Outbox policy
//
// The delivery protocol — seq/epoch stamping, the outbox, backoff, the
// watermark prune, storm detection — is internal/sender's state machine,
// the same one the simulated tree's edges drive; Conn is its TCP driver.
// The outbox is bounded (sender.OutboxLimit, 4096 messages). Send never
// blocks: while the coordinator is unreachable, messages queue, and once
// the outbox is full the *oldest* queued message is dropped to admit the
// new one (counted in DeliveryStats.Dropped and net.dropped). A dropped
// message is lost — nothing re-sends it, so the coordinator's view of the
// site stays short of it (ROADMAP item 4(d)). Flush is the blocking
// counterpart: it drains the outbox through the retry schedule and
// reports what could not be delivered.
package netio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Frame limits and ack codes.
const (
	// maxFrameSize bounds a frame: a K=1024, d=256 model is ~270 MB, far
	// beyond anything real; 64 MB is a generous hard cap against corrupt
	// length prefixes.
	maxFrameSize = 64 << 20

	ackOK  byte = 0x00
	ackErr byte = 0x01
	// ackWatermark introduces the 13-byte hello reply:
	// [0x02][epoch u32 LE][maxSeq u64 LE].
	ackWatermark byte = 0x02
	// ackWatermarkTraced is ackWatermark with the trace capability granted:
	// same 13-byte layout, but the status byte tells the site it may append
	// the 16-byte trace suffix to subsequent frames. Sent only when the
	// hello requested tracing (Count bit 0) AND the server has a tracer; a
	// legacy peer on either side falls back to plain v1/v2 frames.
	ackWatermarkTraced byte = 0x03

	// helloTraceBit, set in a hello frame's Count field, requests the trace
	// capability. Legacy servers ignore Count on hellos, so the request is
	// invisible to them.
	helloTraceBit = 1

	// watermarkAckSize is the hello reply length (status + epoch + seq).
	watermarkAckSize = 1 + 4 + 8
)

// ErrFrameTooLarge is returned for frames exceeding maxFrameSize.
var ErrFrameTooLarge = errors.New("netio: frame too large")

// ErrRemote is returned by the client when the coordinator reports that
// applying a message failed.
var ErrRemote = errors.New("netio: coordinator rejected message")

// writeFrame sends one length-prefixed payload.
func writeFrame(w io.Writer, payload []byte) error {
	if len(payload) > maxFrameSize {
		return ErrFrameTooLarge
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one length-prefixed payload.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrameSize {
		return nil, ErrFrameTooLarge
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// writeAck sends a one-byte status.
func writeAck(w io.Writer, ok bool) error {
	b := ackOK
	if !ok {
		b = ackErr
	}
	_, err := w.Write([]byte{b})
	return err
}

// writeWatermarkAck answers a hello with the site's durable high-water
// mark; traced grants the trace-suffix capability for this connection.
func writeWatermarkAck(w io.Writer, epoch uint32, maxSeq uint64, traced bool) error {
	var b [watermarkAckSize]byte
	b[0] = ackWatermark
	if traced {
		b[0] = ackWatermarkTraced
	}
	binary.LittleEndian.PutUint32(b[1:], epoch)
	binary.LittleEndian.PutUint64(b[5:], maxSeq)
	_, err := w.Write(b[:])
	return err
}

// readWatermarkAck reads a hello reply. traced reports whether the server
// granted the trace-suffix capability.
func readWatermarkAck(r io.Reader) (epoch uint32, maxSeq uint64, traced bool, err error) {
	var b [watermarkAckSize]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, 0, false, err
	}
	if b[0] != ackWatermark && b[0] != ackWatermarkTraced {
		return 0, 0, false, fmt.Errorf("netio: invalid watermark ack byte 0x%02x", b[0])
	}
	return binary.LittleEndian.Uint32(b[1:]), binary.LittleEndian.Uint64(b[5:]), b[0] == ackWatermarkTraced, nil
}

// readAck reads a one-byte status.
func readAck(r io.Reader) error {
	var b [1]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return err
	}
	switch b[0] {
	case ackOK:
		return nil
	case ackErr:
		return ErrRemote
	default:
		return fmt.Errorf("netio: invalid ack byte 0x%02x", b[0])
	}
}
