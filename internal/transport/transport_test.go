package transport

import (
	"math"
	"math/rand"
	"testing"

	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
	"cludistream/internal/site"
)

func sampleMixture(rng *rand.Rand, k, d int) *gaussian.Mixture {
	comps := make([]*gaussian.Component, k)
	ws := make([]float64, k)
	for j := 0; j < k; j++ {
		mean := linalg.NewVector(d)
		for i := range mean {
			mean[i] = rng.NormFloat64() * 5
		}
		cov := linalg.NewSym(d)
		for t := 0; t < d+2; t++ {
			v := linalg.NewVector(d)
			for i := range v {
				v[i] = rng.NormFloat64()
			}
			cov.AddOuterScaled(0.5, v)
		}
		for i := 0; i < d; i++ {
			cov.Add(i, i, 0.2)
		}
		comps[j] = gaussian.MustComponent(mean, cov)
		ws[j] = rng.Float64() + 0.05
	}
	return gaussian.MustMixture(ws, comps)
}

func TestRoundTripNewModel(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, kd := range [][2]int{{1, 1}, {3, 2}, {5, 4}, {2, 8}} {
		m := Message{
			Kind:    MsgNewModel,
			SiteID:  7,
			ModelID: 42,
			Count:   1567,
			Epoch:   1,
			Seq:     3,
			Mixture: sampleMixture(rng, kd[0], kd[1]),
		}
		buf := Encode(m)
		if len(buf) != m.WireSize() {
			t.Fatalf("K=%d d=%d: encoded %d bytes, WireSize says %d", kd[0], kd[1], len(buf), m.WireSize())
		}
		got, err := Decode(buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.SiteID != 7 || got.ModelID != 42 || got.Count != 1567 || got.Kind != MsgNewModel {
			t.Fatalf("header mismatch: %+v", got)
		}
		if got.Mixture.K() != kd[0] || got.Mixture.Dim() != kd[1] {
			t.Fatalf("shape mismatch")
		}
		for j := 0; j < kd[0]; j++ {
			if got.Mixture.Weight(j) != m.Mixture.Weight(j) {
				t.Fatal("weight mismatch")
			}
			if !got.Mixture.Component(j).Equal(m.Mixture.Component(j), 0) {
				t.Fatal("component mismatch")
			}
		}
	}
}

func TestRoundTripWeightUpdateAndDeletion(t *testing.T) {
	for _, kind := range []MsgKind{MsgWeightUpdate, MsgDeletion} {
		m := Message{Kind: kind, SiteID: 3, ModelID: 9, Count: -250, Epoch: 2, Seq: 5}
		buf := Encode(m)
		if len(buf) != headerSize {
			t.Fatalf("%v wire size = %d, want %d", kind, len(buf), headerSize)
		}
		got, err := Decode(buf)
		if err != nil {
			t.Fatal(err)
		}
		if got != m {
			t.Fatalf("round trip: %+v != %+v", got, m)
		}
	}
}

func TestWireSizeFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	// K=5, d=4 (paper defaults): 30 + 8 + 5·8 + 5·4·8 + 5·10·8 = 638.
	m := Message{Kind: MsgNewModel, Mixture: sampleMixture(rng, 5, 4)}
	if got := m.WireSize(); got != 638 {
		t.Fatalf("WireSize(K=5,d=4) = %d, want 638", got)
	}
	// A weight update is 30 bytes — the synopsis saving in one number.
	if got := (Message{Kind: MsgWeightUpdate}).WireSize(); got != 30 {
		t.Fatalf("weight update size = %d", got)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); err != ErrTruncated {
		t.Errorf("nil: %v", err)
	}
	if _, err := Decode([]byte{marker, byte(MsgWeightUpdate), 1, 0, 0}); err != ErrTruncated {
		t.Errorf("short: %v", err)
	}
	if _, err := Decode(Encode(Message{Kind: 99, Seq: 1})); err == nil {
		t.Error("unknown kind accepted")
	}
	// Truncated NewModel body.
	rng := rand.New(rand.NewSource(103))
	full := Encode(Message{Kind: MsgNewModel, Seq: 1, Mixture: sampleMixture(rng, 2, 2)})
	for _, cut := range []int{headerSize, headerSize + 4, len(full) - 1} {
		if _, err := Decode(full[:cut]); err == nil {
			t.Errorf("truncated at %d accepted", cut)
		}
	}
}

func TestSiteUpdateConversion(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	mix := sampleMixture(rng, 2, 3)
	u := site.Update{SiteID: 4, ModelID: 11, Kind: site.NewModel, Mixture: mix, Count: 500}
	m := FromSiteUpdate(u)
	if m.Kind != MsgNewModel || m.SiteID != 4 || m.Count != 500 {
		t.Fatalf("FromSiteUpdate = %+v", m)
	}
	back := m.ToSiteUpdate()
	if back.SiteID != u.SiteID || back.ModelID != u.ModelID || back.Kind != u.Kind || back.Count != u.Count {
		t.Fatalf("round trip: %+v", back)
	}

	w := site.Update{SiteID: 1, ModelID: 2, Kind: site.WeightUpdate, Count: 100}
	if got := FromSiteUpdate(w); got.Kind != MsgWeightUpdate {
		t.Fatalf("weight update kind = %v", got.Kind)
	}
	if got := FromSiteUpdate(w).ToSiteUpdate(); got.Kind != site.WeightUpdate {
		t.Fatal("weight update did not survive round trip")
	}
}

func TestRoundTripVersioned(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	msgs := []Message{
		{Kind: MsgNewModel, SiteID: 2, ModelID: 5, Count: 900, Epoch: 3, Seq: 17, Mixture: sampleMixture(rng, 2, 3)},
		{Kind: MsgWeightUpdate, SiteID: 2, ModelID: 5, Count: 200, Epoch: 1, Seq: 1},
		{Kind: MsgDeletion, SiteID: 9, ModelID: 1, Count: -50, Seq: math.MaxUint64},
		{Kind: MsgWeightUpdate, SiteID: 1, ModelID: 1, Count: 10, Seq: 1}, // seq without epoch
		{Kind: MsgHello, SiteID: 6, Epoch: 4},                             // a Hello carries seq 0
	}
	for _, m := range msgs {
		buf := Encode(m)
		if len(buf) != m.WireSize() {
			t.Fatalf("%v: encoded %d bytes, WireSize says %d", m.Kind, len(buf), m.WireSize())
		}
		got, err := Decode(buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Epoch != m.Epoch || got.Seq != m.Seq {
			t.Fatalf("delivery metadata lost: got epoch=%d seq=%d, want epoch=%d seq=%d",
				got.Epoch, got.Seq, m.Epoch, m.Seq)
		}
		if got.Kind != m.Kind || got.SiteID != m.SiteID || got.ModelID != m.ModelID || got.Count != m.Count {
			t.Fatalf("header mismatch: %+v vs %+v", got, m)
		}
		if m.Mixture != nil && (got.Mixture == nil || got.Mixture.K() != m.Mixture.K()) {
			t.Fatal("mixture lost in versioned frame")
		}
	}
}

// TestDecodeRefusesUnframed: Decode reads one frame layout. A frame that
// opens with a bare kind byte instead of the marker is refused, and so is
// a data frame with seq 0; a Hello, which carries seq 0, still decodes.
func TestDecodeRefusesUnframed(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	hello := Encode(Message{Kind: MsgHello, SiteID: 4, Count: 1})
	type frameCase struct {
		name  string
		frame []byte
		ok    bool
	}
	cases := []frameCase{
		{"hello", hello, true},
		{"weight-update", Encode(Message{Kind: MsgWeightUpdate, SiteID: 4, ModelID: 2, Count: 300, Epoch: 1, Seq: 42}), true},
		{"unsequenced-new-model", Encode(Message{Kind: MsgNewModel, SiteID: 4, ModelID: 2, Count: 300, Epoch: 1, Mixture: sampleMixture(rng, 2, 2)}), false},
		{"unsequenced-weight-update", Encode(Message{Kind: MsgWeightUpdate, SiteID: 4, ModelID: 2, Count: 300, Epoch: 1}), false},
		{"unsequenced-deletion", Encode(Message{Kind: MsgDeletion, SiteID: 4, ModelID: 2, Count: 300, Epoch: 1}), false},
	}
	for kind := MsgNewModel; kind <= MsgHello; kind++ {
		// The retired unframed layout: the kind byte first, the marker
		// and the delivery fields absent.
		bare := append([]byte{byte(kind)}, make([]byte, headerSize)...)
		cases = append(cases, frameCase{"bare-" + kind.String(), bare, false})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			msg, err := Decode(tc.frame)
			if tc.ok && err != nil {
				t.Fatalf("refused: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("accepted: %+v", msg)
			}
		})
	}
	// Truncated headers are refused, not misparsed.
	for cut := 1; cut < len(hello); cut++ {
		if _, err := Decode(hello[:cut]); err == nil {
			t.Fatalf("truncated frame of %d bytes accepted", cut)
		}
	}
}

func TestDecodeRejectsImplausibleShape(t *testing.T) {
	// K = 0 encoded.
	buf := append(Encode(Message{Kind: MsgNewModel, Seq: 1}), make([]byte, 8)...)
	if _, err := Decode(buf); err == nil {
		t.Fatal("K=0 accepted")
	}
}

// TestDecodeFor: a NewModel is refused when its mixture header declares
// another dimension than the receiver's, and every other frame decodes as
// Decode decodes it.
func TestDecodeFor(t *testing.T) {
	rng := rand.New(rand.NewSource(108))
	nm := Encode(Message{Kind: MsgNewModel, Seq: 1, Mixture: sampleMixture(rng, 2, 3)})
	if _, err := DecodeFor(nm, 3); err != nil {
		t.Fatalf("d = 3 model refused by a d = 3 receiver: %v", err)
	}
	if _, err := DecodeFor(nm, 4); err == nil {
		t.Fatal("d = 3 model accepted by a d = 4 receiver")
	}
	if _, err := DecodeFor(nm[:headerSize+7], 4); err != ErrTruncated {
		t.Fatalf("mixture header cut short: %v, want ErrTruncated", err)
	}
	for _, m := range []Message{{Kind: MsgWeightUpdate, Seq: 1}, {Kind: MsgHello}} {
		if _, err := DecodeFor(Encode(m), 4); err != nil {
			t.Fatalf("%v refused: %v", m.Kind, err)
		}
	}
}
