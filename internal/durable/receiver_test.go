package durable

import (
	"bytes"
	"fmt"
	"testing"

	"cludistream/internal/coordinator"
	"cludistream/internal/telemetry"
	"cludistream/internal/transport"
)

// TestReceiverContract pins the receive step as one table: every dedupe
// verdict × message kind × store mode. Site 1 is primed with model 1 at
// epoch 2, seq 1; the case message is then
//
//	fresh      epoch 2, seq 2  → applied
//	new-epoch  epoch 3, seq 1  → site reset, then applied; model 1 is gone,
//	                             so the apply errors
//	stale      epoch 1         → dropped
//	dup        epoch 2, seq 1  → dropped
//
// With a refusing WAL nothing runs: the watermark and the coordinator's
// bytes are untouched and a retry gets the verdict the message would have
// had.
func TestReceiverContract(t *testing.T) {
	verdicts := []struct {
		name     string
		epoch    uint32
		seq      uint64
		want     Verdict
		applyErr bool
	}{
		{"fresh", 2, 2, AdmitFresh, false},
		{"new-epoch", 3, 1, AdmitNewEpoch, true},
		{"stale", 1, 5, DropStale, false},
		{"dup", 2, 1, DropDuplicate, false},
	}
	kinds := []transport.MsgKind{transport.MsgWeightUpdate, transport.MsgDeletion}
	stores := []string{"none", "durable", "wal-refusing"}

	for _, v := range verdicts {
		for _, kind := range kinds {
			for _, mode := range stores {
				t.Run(fmt.Sprintf("%s/%v/%s", v.name, kind, mode), func(t *testing.T) {
					coord, err := coordinator.New(coordCfg())
					if err != nil {
						t.Fatal(err)
					}
					var observed []Verdict
					r := &Receiver{
						Coord: coord, Dedupe: NewDedupe(),
						OnApply: func(_ transport.Message, v Verdict) { observed = append(observed, v) },
					}
					if mode != "none" {
						st, rec, err := Open(t.TempDir(), coordCfg(), Options{CheckpointEvery: 2})
						if err != nil {
							t.Fatal(err)
						}
						r.Coord, r.Dedupe, r.Store = rec.Coord, rec.Dedupe, st
						if mode == "durable" {
							defer st.Close()
						}
					}
					prime := newModelMsg(1, 1, 1, -5, 5)
					prime.Epoch = 2
					if res := r.Receive(transport.Encode(prime), prime); res.Err() != nil || res.Verdict != AdmitFresh {
						t.Fatalf("priming: %+v", res)
					}
					observed = nil
					before := r.Stats()
					mark := r.Dedupe.Watermark(1)
					state := stateBytes(t, r.Coord, r.Dedupe, 0)

					msg := transport.Message{Kind: kind, SiteID: 1, ModelID: 1, Count: 50, Epoch: v.epoch, Seq: v.seq}
					payload := transport.Encode(msg)
					if mode == "wal-refusing" {
						// The log's file is gone; the next append cannot sync.
						if err := r.Store.wal.Crash(); err != nil {
							t.Fatal(err)
						}
						res := r.Receive(payload, msg)
						if res.AppendErr == nil {
							t.Fatal("append to a closed WAL succeeded")
						}
						if res.ApplyErr != nil || res.CheckpointErr != nil || res.Err() != res.AppendErr {
							t.Fatalf("refused receive ran past the append: %+v", res)
						}
						if got := r.Dedupe.Watermark(1); got != mark {
							t.Fatalf("refused append moved the watermark %+v → %+v", mark, got)
						}
						if !bytes.Equal(stateBytes(t, r.Coord, r.Dedupe, 0), state) {
							t.Fatal("refused append changed the coordinator")
						}
						if r.Stats() != before || observed != nil {
							t.Fatalf("refused append counted %+v or observed %v", r.Stats(), observed)
						}
						r.Store = nil // the retry reaches a healthy receiver
					}

					var walBefore int
					if mode == "durable" {
						walBefore = r.Store.WALRecords()
					}
					res := r.Receive(payload, msg)
					if res.AppendErr != nil || res.CheckpointErr != nil {
						t.Fatalf("receive: %+v", res)
					}
					if res.Verdict != v.want {
						t.Fatalf("verdict %v, want %v", res.Verdict, v.want)
					}
					if (res.ApplyErr != nil) != v.applyErr {
						t.Fatalf("apply error %v, want error: %v", res.ApplyErr, v.applyErr)
					}
					if res.Err() != res.ApplyErr {
						t.Fatalf("Err() = %v, want the apply error %v", res.Err(), res.ApplyErr)
					}

					want := before
					dropped := v.want.Dropped()
					if dropped {
						want.Duplicates++
						want.DuplicateBytes += len(payload)
						if observed != nil {
							t.Fatalf("dropped message reached OnApply: %v", observed)
						}
						if !bytes.Equal(stateBytes(t, r.Coord, r.Dedupe, 0), state) {
							t.Fatal("dropped message changed the coordinator")
						}
					} else {
						want.Applied++
						if v.applyErr {
							want.ApplyErrors++
						}
						if v.want == AdmitNewEpoch {
							want.SiteResets++
						}
						if len(observed) != 1 || observed[0] != v.want {
							t.Fatalf("OnApply saw %v, want one %v", observed, v.want)
						}
					}
					if got := r.Stats(); got != want {
						t.Fatalf("stats %+v, want %+v", got, want)
					}

					if mode == "durable" {
						// Logged before the verdict, drops included; the second
						// record makes a checkpoint due, which only an applied
						// message takes.
						if dropped {
							if got := r.Store.WALRecords(); got != walBefore+1 {
								t.Fatalf("WAL holds %d records, want %d", got, walBefore+1)
							}
							if r.Store.Gen() != 1 {
								t.Fatalf("a drop checkpointed (gen %d)", r.Store.Gen())
							}
						} else if r.Store.Gen() != 2 || r.Store.NeedCheckpoint() {
							t.Fatalf("due checkpoint not taken: gen %d, need %v", r.Store.Gen(), r.Store.NeedCheckpoint())
						}
					}
				})
			}
		}
	}
}

// FuzzReceive feeds arbitrary bytes through the coordinator's receive path
// as every caller runs it — transport.Decode, then Receive — on a traced
// d = 4 coordinator at the daemons' configuration (simplex-fitted merge)
// that already holds one valid model. Whatever decodes must be received
// without a panic: rejected or applied, never a crash.
func FuzzReceive(f *testing.F) {
	seeds := []transport.Message{
		{Kind: transport.MsgNewModel, SiteID: 1, ModelID: 2, Count: 256, Epoch: 1, Seq: 2, Mixture: paletteMix(1, 1)},
		{Kind: transport.MsgNewModel, SiteID: 2, ModelID: 1, Count: 256, Epoch: 1, Seq: 1, Mixture: paletteMix(2, 0), TraceID: 7, SpanID: 9},
		{Kind: transport.MsgWeightUpdate, SiteID: 1, ModelID: 1, Count: 256, Epoch: 1, Seq: 2},
		{Kind: transport.MsgWeightUpdate, SiteID: 1, ModelID: 5, Count: -9, Epoch: 1, Seq: 3},
		{Kind: transport.MsgDeletion, SiteID: 1, ModelID: 1, Count: 256, Epoch: 1, Seq: 2, TraceID: 3, SpanID: 4},
		{Kind: transport.MsgDeletion, SiteID: 1, ModelID: 1, Count: 1 << 40, Epoch: 2, Seq: 1},
		{Kind: transport.MsgWeightUpdate, SiteID: 1, ModelID: 1, Count: 10},
		{Kind: transport.MsgHello, SiteID: 1, Epoch: 1},
	}
	for _, m := range seeds {
		f.Add(transport.Encode(m))
	}
	prime := transport.Message{Kind: transport.MsgNewModel, SiteID: 1, ModelID: 1, Count: 256, Epoch: 1, Seq: 1, Mixture: paletteMix(1, 0)}
	primePayload := transport.Encode(prime)

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := transport.Decode(data)
		if err != nil {
			return
		}
		coord, err := coordinator.New(coordinator.Config{Dim: 4})
		if err != nil {
			t.Fatal(err)
		}
		reg := telemetry.NewRegistry()
		reg.EnableTracing(telemetry.TraceOptions{})
		r := &Receiver{Coord: coord, Dedupe: NewDedupe(), Tracer: reg.Tracer()}
		if err := r.Receive(primePayload, prime).Err(); err != nil {
			t.Fatal(err)
		}
		res := r.Receive(data, msg)
		if res.AppendErr != nil || res.CheckpointErr != nil {
			t.Fatalf("storeless receive failed outside the apply: %+v", res)
		}
	})
}
