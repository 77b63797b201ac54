package transport

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// FuzzDecode hammers the wire decoder with arbitrary bytes: it must never
// panic, every frame it accepts must re-encode to the same header and
// decode again, and every data frame it accepts has seq ≥ 1.
func FuzzDecode(f *testing.F) {
	// Seed corpus: valid frames of each kind plus classic corruptions.
	rng := rand.New(rand.NewSource(1))
	valid := Encode(Message{Kind: MsgNewModel, SiteID: 1, ModelID: 2, Count: 3, Epoch: 1, Seq: 1, Mixture: sampleMixture(rng, 2, 3)})
	f.Add(valid)
	f.Add(Encode(Message{Kind: MsgWeightUpdate, SiteID: 1, ModelID: 2, Count: 3, Epoch: 1, Seq: 2}))
	f.Add(Encode(Message{Kind: MsgDeletion, SiteID: 9, ModelID: 1, Count: -50, Epoch: 3, Seq: 4}))
	f.Add(Encode(Message{Kind: MsgHello, SiteID: 5, Count: 1}))
	f.Add(Encode(Message{Kind: MsgWeightUpdate, SiteID: 1, ModelID: 2, Count: 3, Epoch: 1, Seq: 5, TraceID: 7, SpanID: 8}))
	f.Add(valid[:headerSize-3]) // header cut inside seq
	f.Add([]byte{})
	f.Add(Encode(Message{Kind: MsgWeightUpdate, SiteID: 1, ModelID: 2, Count: 3, Epoch: 1})) // seq 0
	f.Add(valid[:len(valid)-4])
	corrupt := append([]byte(nil), valid...)
	corrupt[1] = 200
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := Decode(data)
		if err != nil {
			return
		}
		if msg.Kind != MsgHello && msg.Seq == 0 {
			t.Fatalf("accepted a %v frame with seq 0", msg.Kind)
		}
		re := Encode(msg)
		if !bytes.Equal(re[:headerSize], data[:headerSize]) {
			t.Fatalf("re-encoded header %x, read %x", re[:headerSize], data[:headerSize])
		}
		msg2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if msg2.Kind != msg.Kind || msg2.SiteID != msg.SiteID ||
			msg2.ModelID != msg.ModelID || msg2.Count != msg.Count ||
			msg2.Epoch != msg.Epoch || msg2.Seq != msg.Seq {
			t.Fatalf("round trip changed header: %+v vs %+v", msg2, msg)
		}
	})
}

// TestQuickEncodeDecode is the property-test counterpart: random valid
// messages always round-trip bit-exactly.
func TestQuickEncodeDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(siteID, modelID int32, count int64, kRaw, dRaw uint8) bool {
		k := int(kRaw%4) + 1
		d := int(dRaw%5) + 1
		m := Message{
			Kind:    MsgNewModel,
			SiteID:  siteID,
			ModelID: modelID,
			Count:   count,
			Seq:     1,
			Mixture: sampleMixture(rng, k, d),
		}
		buf := Encode(m)
		got, err := Decode(buf)
		if err != nil {
			return false
		}
		if got.SiteID != m.SiteID || got.ModelID != m.ModelID || got.Count != m.Count {
			return false
		}
		// Means and covariances must round-trip bit-exactly; weights are
		// re-normalized on decode, so they round-trip within float noise.
		if got.Mixture.K() != m.Mixture.K() || got.Mixture.Dim() != m.Mixture.Dim() {
			return false
		}
		for j := 0; j < m.Mixture.K(); j++ {
			if !got.Mixture.Component(j).Equal(m.Mixture.Component(j), 0) {
				return false
			}
			if math.Abs(got.Mixture.Weight(j)-m.Mixture.Weight(j)) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
