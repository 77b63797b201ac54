package durable

import (
	"reflect"
	"testing"

	"cludistream/internal/persist"
)

func TestDedupeProtocol(t *testing.T) {
	d := NewDedupe()
	steps := []struct {
		site int32
		ep   uint32
		seq  uint64
		want Verdict
	}{
		{1, 1, 1, AdmitFresh},    // first frame from a site
		{1, 1, 2, AdmitFresh},    // in order
		{1, 1, 2, DropDuplicate}, // retransmit
		{1, 1, 1, DropDuplicate}, // late retransmit below the mark
		{1, 1, 5, AdmitFresh},    // gap is fine: the mark is a high-water, not a run
		{2, 1, 1, AdmitFresh},    // independent per site
		{1, 2, 1, AdmitNewEpoch}, // restart: higher epoch resets the seq space
		{1, 1, 9, DropStale},     // the dead incarnation's frames are refused
		{1, 2, 2, AdmitFresh},    // new incarnation proceeds
	}
	for i, s := range steps {
		if got := d.Admit(s.site, s.ep, s.seq); got != s.want {
			t.Fatalf("step %d (site %d, epoch %d, seq %d): verdict %v, want %v", i, s.site, s.ep, s.seq, got, s.want)
		}
	}
	if wm := d.Watermark(1); wm != (Watermark{Epoch: 2, MaxSeq: 2}) {
		t.Fatalf("site 1 watermark = %+v", wm)
	}
	if wm := d.Watermark(99); wm != (Watermark{}) {
		t.Fatalf("unknown site watermark = %+v", wm)
	}
}

func TestDedupeFirstEpochIsNotAReset(t *testing.T) {
	// A site's very first frame carries epoch ≥ 1; that must admit as
	// fresh, not trigger a state reset for a site with no state.
	d := NewDedupe()
	if got := d.Admit(4, 3, 1); got != AdmitFresh {
		t.Fatalf("first contact at epoch 3: verdict %v, want AdmitFresh", got)
	}
}

func TestDedupeEntriesRoundTrip(t *testing.T) {
	d := NewDedupe()
	d.Admit(5, 2, 10)
	d.Admit(1, 1, 3)
	d.Admit(9, 1, 7)
	entries := d.Entries()
	want := []persist.DedupeEntry{
		{SiteID: 1, Epoch: 1, MaxSeq: 3},
		{SiteID: 5, Epoch: 2, MaxSeq: 10},
		{SiteID: 9, Epoch: 1, MaxSeq: 7},
	}
	if !reflect.DeepEqual(entries, want) {
		t.Fatalf("entries = %+v", entries)
	}
	r := DedupeFromEntries(entries)
	if r.Len() != 3 || !reflect.DeepEqual(r.Entries(), entries) {
		t.Fatal("DedupeFromEntries did not rebuild the table")
	}
	// The recovered table continues the protocol where the original left off.
	if got := r.Admit(5, 2, 10); got != DropDuplicate {
		t.Fatalf("recovered table re-admitted an applied frame: %v", got)
	}
	if got := r.Admit(5, 2, 11); got != AdmitFresh {
		t.Fatalf("recovered table refused the next frame: %v", got)
	}
}

func TestDedupeBrokenReappliesDuplicates(t *testing.T) {
	d := NewDedupe()
	d.Broken = true
	d.Admit(1, 1, 1)
	if got := d.Admit(1, 1, 1); got != AdmitFresh {
		t.Fatalf("broken table still deduped: %v", got)
	}
}
