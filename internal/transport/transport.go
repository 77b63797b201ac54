// Package transport defines the wire messages exchanged between remote
// sites and the coordinator, with a deterministic binary encoding. The
// communication-cost experiments (Figure 2) report exact encoded byte
// counts, so the encoding *is* the cost model: a NewModel message carries
// the full synopsis (weights, means, packed covariances — Section 5.3's
// "synopsis-based information exchange"), a WeightUpdate or Deletion
// message carries 21 bytes.
//
// # Wire versions
//
// Version 1 (the original format) starts with the kind byte (1–3) and has
// no delivery metadata. Version 2 prefixes the same layout with the marker
// byte 0xC2 and inserts a site epoch (uint32) and a per-site monotone
// sequence number (uint64) after the header, making every message
// idempotently identifiable for at-least-once delivery with receiver-side
// dedupe. Encode picks v2 exactly when Seq or Epoch is set, so legacy
// senders (and the byte-for-byte cost model of the figures) are untouched;
// Decode accepts both.
//
// # Trace suffix
//
// A traced message (TraceID or SpanID set) appends a 16-byte suffix —
// trace ID then parent span ID, both uint64 little-endian — after the
// payload. The suffix rides behind every existing layout, so untraced
// bytes are bit-identical to what they always were; Decode recognizes the
// suffix by the exact 16 bytes remaining after the body. Over TCP the
// suffix is additionally gated by a handshake capability (see
// internal/netio), so an unupgraded coordinator never sees it.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"cludistream/internal/gaussian"
	"cludistream/internal/site"
)

// MsgKind discriminates wire messages.
type MsgKind uint8

const (
	// MsgNewModel carries full mixture parameters.
	MsgNewModel MsgKind = iota + 1
	// MsgWeightUpdate shifts weight to an already-transmitted model.
	MsgWeightUpdate
	// MsgDeletion removes weight (sliding windows, Section 7).
	MsgDeletion
	// MsgHello opens a connection: the site announces its identity so a
	// recovered coordinator can reply with the site's durable (epoch, seq)
	// high-water mark and the site retransmits only the unapplied suffix of
	// its outbox. Carries SiteID only; Count, ModelID and Mixture are unused.
	MsgHello
)

func (k MsgKind) String() string {
	switch k {
	case MsgNewModel:
		return "new-model"
	case MsgWeightUpdate:
		return "weight-update"
	case MsgDeletion:
		return "deletion"
	case MsgHello:
		return "hello"
	default:
		return fmt.Sprintf("MsgKind(%d)", int(k))
	}
}

// Message is one site→coordinator datagram.
type Message struct {
	Kind    MsgKind
	SiteID  int32
	ModelID int32
	Count   int64
	// Epoch identifies the sender's incarnation: a site that crashes and
	// restarts resumes with a higher epoch, telling the coordinator to
	// discard state from the dead incarnation. Zero (with Seq zero) selects
	// the legacy v1 encoding.
	Epoch uint32
	// Seq is the per-site monotone delivery sequence number (1-based).
	// Receivers drop (siteID, epoch, seq) duplicates, so retransmitted
	// frames are exactly-once in effect. Zero (with Epoch zero) selects the
	// legacy v1 encoding.
	Seq uint64
	// TraceID and SpanID carry the causal trace context of the chunk that
	// produced this message (see internal/telemetry): the trace minted at
	// the site and the parent span the receiver should hang its own spans
	// under. Both zero (the default) means untraced and the encoding emits
	// no suffix, keeping untraced wire bytes bit-identical to earlier
	// releases.
	TraceID uint64
	SpanID  uint64
	// Mixture is present iff Kind == MsgNewModel.
	Mixture *gaussian.Mixture
}

// ErrTruncated is returned by Decode for short buffers.
var ErrTruncated = errors.New("transport: truncated message")

const (
	headerSize = 1 + 4 + 4 + 8 // kind + site + model + count

	// verMarker introduces a v2 message; it collides with no MsgKind.
	verMarker byte = 0xC2
	// v2ExtraSize is the v2 overhead: marker + epoch + seq.
	v2ExtraSize = 1 + 4 + 8
)

// TraceSuffixSize is the encoded size of the trace context suffix a traced
// message carries: trace ID + parent span ID, uint64 little-endian each.
const TraceSuffixSize = 8 + 8

// versioned reports whether the message needs the v2 encoding.
func (m Message) versioned() bool { return m.Seq != 0 || m.Epoch != 0 }

// traced reports whether the message carries the trace suffix.
func (m Message) traced() bool { return m.TraceID != 0 || m.SpanID != 0 }

// WireSize returns the exact encoded size in bytes.
func (m Message) WireSize() int {
	n := headerSize
	if m.versioned() {
		n += v2ExtraSize
	}
	if m.traced() {
		n += TraceSuffixSize
	}
	if m.Kind == MsgNewModel && m.Mixture != nil {
		n += len(gaussian.AppendMixture(nil, m.Mixture))
	}
	return n
}

// Encode serializes the message (little-endian, fixed layout; the
// mixture of a NewModel in gaussian.AppendMixture's layout). Messages
// with a Seq or Epoch use the v2 framing; all others stay v1.
func Encode(m Message) []byte {
	buf := make([]byte, 0, headerSize+v2ExtraSize+TraceSuffixSize)
	if m.versioned() {
		buf = append(buf, verMarker)
	}
	buf = append(buf, byte(m.Kind))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.SiteID))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.ModelID))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.Count))
	if m.versioned() {
		buf = binary.LittleEndian.AppendUint32(buf, m.Epoch)
		buf = binary.LittleEndian.AppendUint64(buf, m.Seq)
	}
	if m.Kind == MsgNewModel && m.Mixture != nil {
		buf = gaussian.AppendMixture(buf, m.Mixture)
	}
	if m.traced() {
		buf = AppendTraceSuffix(buf, m.TraceID, m.SpanID)
	}
	return buf
}

// AppendTraceSuffix appends the 16-byte trace context suffix to an
// already-encoded payload. Conn-layer senders use it to attach trace
// context at transmit time, after the handshake has negotiated the
// capability, without re-encoding the queued payload.
func AppendTraceSuffix(buf []byte, traceID, spanID uint64) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, traceID)
	return binary.LittleEndian.AppendUint64(buf, spanID)
}

// Decode parses a message produced by Encode, accepting both the legacy
// v1 framing and the v2 framing carrying epoch and sequence number.
func Decode(b []byte) (Message, error) {
	var m Message
	v2 := len(b) > 0 && b[0] == verMarker
	if v2 {
		if len(b) < headerSize+v2ExtraSize {
			return Message{}, ErrTruncated
		}
		b = b[1:] // kind/site/model/count sit at the v1 offsets now
	} else if len(b) < headerSize {
		return Message{}, ErrTruncated
	}
	m.Kind = MsgKind(b[0])
	m.SiteID = int32(binary.LittleEndian.Uint32(b[1:]))
	m.ModelID = int32(binary.LittleEndian.Uint32(b[5:]))
	m.Count = int64(binary.LittleEndian.Uint64(b[9:]))
	b = b[headerSize:]
	if v2 {
		m.Epoch = binary.LittleEndian.Uint32(b)
		m.Seq = binary.LittleEndian.Uint64(b[4:])
		b = b[4+8:]
	}
	switch m.Kind {
	case MsgWeightUpdate, MsgDeletion, MsgHello:
		m.readTraceSuffix(b)
		return m, nil
	case MsgNewModel:
	default:
		return Message{}, fmt.Errorf("transport: unknown kind %d", m.Kind)
	}
	weights, comps, rest, err := gaussian.ParseMixture(b)
	if errors.Is(err, io.ErrUnexpectedEOF) {
		return Message{}, ErrTruncated
	}
	if err != nil {
		return Message{}, fmt.Errorf("transport: %w", err)
	}
	mix, err := gaussian.NewMixture(weights, comps)
	if err != nil {
		return Message{}, fmt.Errorf("transport: %w", err)
	}
	m.Mixture = mix
	m.readTraceSuffix(rest)
	return m, nil
}

// readTraceSuffix parses the optional 16-byte trace context from the
// bytes remaining after the message body. Anything other than exactly
// TraceSuffixSize remaining is treated as the historical "ignore trailing
// bytes" behavior, keeping Decode tolerant of unknown future extensions.
func (m *Message) readTraceSuffix(b []byte) {
	if len(b) != TraceSuffixSize {
		return
	}
	m.TraceID = binary.LittleEndian.Uint64(b)
	m.SpanID = binary.LittleEndian.Uint64(b[8:])
}

// FromSiteUpdate converts a site.Update into a wire message.
func FromSiteUpdate(u site.Update) Message {
	kind := MsgNewModel
	if u.Kind == site.WeightUpdate {
		kind = MsgWeightUpdate
	}
	return Message{
		Kind:    kind,
		SiteID:  int32(u.SiteID),
		ModelID: int32(u.ModelID),
		Count:   int64(u.Count),
		TraceID: u.TraceID,
		SpanID:  u.SpanID,
		Mixture: u.Mixture,
	}
}

// ToSiteUpdate converts a decoded message back for coordinator consumption.
// Deletion messages have no site.Update equivalent and must be routed to
// Coordinator.HandleDeletion by the caller.
func (m Message) ToSiteUpdate() site.Update {
	kind := site.NewModel
	if m.Kind == MsgWeightUpdate {
		kind = site.WeightUpdate
	}
	return site.Update{
		SiteID:  int(m.SiteID),
		ModelID: int(m.ModelID),
		Kind:    kind,
		Count:   int(m.Count),
		TraceID: m.TraceID,
		SpanID:  m.SpanID,
		Mixture: m.Mixture,
	}
}
