package transport

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestGoldenFrameBytes pins the exact wire encoding of an untraced
// weight update. Any byte-level drift here would break interoperability
// with deployed peers, so the expectation is hard-coded rather than
// derived.
func TestGoldenFrameBytes(t *testing.T) {
	m := Message{Kind: MsgWeightUpdate, SiteID: 4, ModelID: 2, Count: 300, Epoch: 3, Seq: 7}
	want := []byte{
		0xC2,                  // marker
		byte(MsgWeightUpdate), // kind
		4, 0, 0, 0,            // site (LE)
		2, 0, 0, 0, // model (LE)
		0x2C, 0x01, 0, 0, 0, 0, 0, 0, // count = 300 (LE)
		3, 0, 0, 0, // epoch (LE)
		7, 0, 0, 0, 0, 0, 0, 0, // seq (LE)
	}
	if got := Encode(m); !bytes.Equal(got, want) {
		t.Fatalf("frame encoding drifted:\n got  %x\n want %x", got, want)
	}
}

// TestTraceSuffixRoundTrip covers the suffix across all message kinds: WireSize accounts for the 16 bytes, Decode restores the IDs,
// and a zero trace context leaves the frame untouched.
func TestTraceSuffixRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(106))
	msgs := []Message{
		{Kind: MsgWeightUpdate, SiteID: 1, ModelID: 2, Count: 10, Seq: 1, TraceID: 7, SpanID: 9},
		{Kind: MsgDeletion, SiteID: 3, ModelID: 1, Count: -40, Epoch: 2, Seq: 5, TraceID: 1 << 40, SpanID: 1},
		{Kind: MsgNewModel, SiteID: 2, ModelID: 6, Count: 800, Epoch: 1, Seq: 9,
			Mixture: sampleMixture(rng, 2, 3), TraceID: 12345, SpanID: 0},
		{Kind: MsgWeightUpdate, SiteID: 5, ModelID: 5, Count: 1, Seq: 2, TraceID: 0, SpanID: 77}, // span without trace
	}
	for _, m := range msgs {
		buf := Encode(m)
		if len(buf) != m.WireSize() {
			t.Fatalf("%v traced: encoded %d bytes, WireSize says %d", m.Kind, len(buf), m.WireSize())
		}
		untraced := m
		untraced.TraceID, untraced.SpanID = 0, 0
		if got := len(buf) - len(Encode(untraced)); got != TraceSuffixSize {
			t.Fatalf("%v: suffix overhead = %d, want %d", m.Kind, got, TraceSuffixSize)
		}
		got, err := Decode(buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.TraceID != m.TraceID || got.SpanID != m.SpanID {
			t.Fatalf("%v: trace context lost: got (%d,%d), want (%d,%d)",
				m.Kind, got.TraceID, got.SpanID, m.TraceID, m.SpanID)
		}
		if got.Kind != m.Kind || got.SiteID != m.SiteID || got.Count != m.Count ||
			got.Epoch != m.Epoch || got.Seq != m.Seq {
			t.Fatalf("%v: payload diverged: %+v", m.Kind, got)
		}
	}
}

// TestAppendTraceSuffixAtTransmitTime mirrors what the TCP conn layer does:
// the queued payload is encoded untraced, and the suffix is appended per
// transmission after the handshake negotiates the capability.
func TestAppendTraceSuffixAtTransmitTime(t *testing.T) {
	base := Encode(Message{Kind: MsgWeightUpdate, SiteID: 2, ModelID: 3, Count: 50, Epoch: 1, Seq: 4})
	wire := AppendTraceSuffix(append([]byte(nil), base...), 99, 100)
	if len(wire) != len(base)+TraceSuffixSize {
		t.Fatalf("suffix size = %d", len(wire)-len(base))
	}
	got, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.TraceID != 99 || got.SpanID != 100 {
		t.Fatalf("transmit-time suffix lost: (%d,%d)", got.TraceID, got.SpanID)
	}
	// The original queued payload is untouched and still decodes untraced.
	plain, err := Decode(base)
	if err != nil {
		t.Fatal(err)
	}
	if plain.TraceID != 0 || plain.SpanID != 0 {
		t.Fatalf("untraced payload grew trace context: %+v", plain)
	}
}

// TestTraceSuffixUpdateConversion checks the trace context survives the
// site.Update <-> Message conversions used by every runtime.
func TestTraceSuffixUpdateConversion(t *testing.T) {
	m := Message{Kind: MsgWeightUpdate, SiteID: 1, ModelID: 2, Count: 5, TraceID: 31, SpanID: 32}
	u := m.ToSiteUpdate()
	if u.TraceID != 31 || u.SpanID != 32 {
		t.Fatalf("ToSiteUpdate dropped trace context: %+v", u)
	}
	back := FromSiteUpdate(u)
	if back.TraceID != 31 || back.SpanID != 32 {
		t.Fatalf("FromSiteUpdate dropped trace context: %+v", back)
	}
}
