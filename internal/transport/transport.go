// Package transport defines the wire messages exchanged between remote
// sites and the coordinator, with a deterministic binary encoding. The
// communication-cost experiments (Figure 2) report exact encoded byte
// counts, so the encoding *is* the cost model: a NewModel message carries
// the full synopsis (weights, means, packed covariances — Section 5.3's
// "synopsis-based information exchange"), a WeightUpdate or Deletion
// message carries 30 bytes.
//
// # Frame layout
//
// Every frame opens with the same 30-byte header, little-endian:
//
//	0xC2 | kind u8 | site i32 | model i32 | count i64 | epoch u32 | seq u64
//
// The marker byte 0xC2 collides with no kind. Epoch names the sender's
// incarnation and seq numbers its messages from 1, so every data message
// is idempotently identifiable for at-least-once delivery with
// receiver-side dedupe; only a Hello carries seq 0. A NewModel's mixture
// follows the header in gaussian.AppendMixture's layout.
//
// # Trace suffix
//
// A traced message (TraceID or SpanID set) appends a 16-byte suffix —
// trace ID then parent span ID, both uint64 little-endian — after the
// payload, so untraced bytes are unchanged by tracing; Decode recognizes
// the suffix by the exact 16 bytes remaining after the body. Over TCP the
// suffix is additionally gated by a handshake capability (see
// internal/netio), so a coordinator without a tracer never sees it.
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
	// discard state from the dead incarnation.
	Epoch uint32
	// Seq is the per-incarnation delivery sequence number, numbered from
	// 1 (a Hello carries 0). Receivers drop (siteID, epoch, seq)
	// duplicates, so retransmitted frames are exactly-once in effect.
	Seq uint64
	// TraceID and SpanID carry the causal trace context of the chunk that
	// produced this message (see internal/telemetry): the trace minted at
	// the site and the parent span the receiver should hang its own spans
	// under. Both zero (the default) means untraced and the encoding emits
	// no suffix.
	TraceID uint64
	SpanID  uint64
	// Mixture is present iff Kind == MsgNewModel.
	Mixture *gaussian.Mixture
}

// ErrTruncated is returned by Decode for short buffers.
var ErrTruncated = errors.New("transport: truncated message")

const (
	// marker opens every frame; it collides with no MsgKind.
	marker byte = 0xC2
	// headerSize is the frame header: marker, kind, site, model, count,
	// epoch and seq.
	headerSize = 1 + 1 + 4 + 4 + 8 + 4 + 8
)

// TraceSuffixSize is the encoded size of the trace context suffix a traced
// message carries: trace ID + parent span ID, uint64 little-endian each.
const TraceSuffixSize = 8 + 8

// traced reports whether the message carries the trace suffix.
func (m Message) traced() bool { return m.TraceID != 0 || m.SpanID != 0 }

// WireSize returns the exact encoded size in bytes.
func (m Message) WireSize() int {
	n := headerSize
	if m.traced() {
		n += TraceSuffixSize
	}
	if m.Kind == MsgNewModel && m.Mixture != nil {
		n += len(gaussian.AppendMixture(nil, m.Mixture))
	}
	return n
}

// Encode serializes the message: the frame header, then the mixture of a
// NewModel in gaussian.AppendMixture's layout, then the trace suffix of a
// traced message.
func Encode(m Message) []byte {
	buf := make([]byte, 0, headerSize+TraceSuffixSize)
	buf = append(buf, marker, byte(m.Kind))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.SiteID))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.ModelID))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.Count))
	buf = binary.LittleEndian.AppendUint32(buf, m.Epoch)
	buf = binary.LittleEndian.AppendUint64(buf, m.Seq)
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

// Decode parses a frame produced by Encode. It refuses a frame that does
// not open with the marker, and a NewModel, WeightUpdate or Deletion
// whose seq is 0.
func Decode(b []byte) (Message, error) {
	if len(b) > 0 && b[0] != marker {
		return Message{}, fmt.Errorf("transport: frame opens with 0x%02x, not the marker 0x%02x", b[0], marker)
	}
	if len(b) < headerSize {
		return Message{}, ErrTruncated
	}
	m := Message{
		Kind:    MsgKind(b[1]),
		SiteID:  int32(binary.LittleEndian.Uint32(b[2:])),
		ModelID: int32(binary.LittleEndian.Uint32(b[6:])),
		Count:   int64(binary.LittleEndian.Uint64(b[10:])),
		Epoch:   binary.LittleEndian.Uint32(b[18:]),
		Seq:     binary.LittleEndian.Uint64(b[22:]),
	}
	b = b[headerSize:]
	switch {
	case m.Kind < MsgNewModel || m.Kind > MsgHello:
		return Message{}, fmt.Errorf("transport: unknown kind %d", m.Kind)
	case m.Seq == 0 && m.Kind != MsgHello:
		return Message{}, fmt.Errorf("transport: %v frame with seq 0", m.Kind)
	case m.Kind != MsgNewModel:
		m.readTraceSuffix(b)
		return m, nil
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

// DecodeFor is Decode for a receiver of dimension dim: a NewModel whose
// mixture header declares another dimension is refused from the header
// alone, before any of its body is parsed.
func DecodeFor(b []byte, dim int) (Message, error) {
	if len(b) >= headerSize && b[0] == marker && MsgKind(b[1]) == MsgNewModel {
		if _, d, ok := gaussian.MixtureShape(b[headerSize:]); ok && d != dim {
			return Message{}, fmt.Errorf("transport: NewModel of dimension %d, receiver dimension %d", d, dim)
		}
	}
	return Decode(b)
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
