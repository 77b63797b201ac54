package hier

import (
	"testing"

	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
	"cludistream/internal/transport"
)

func mirrorMix(mean, variance float64) *gaussian.Mixture {
	return gaussian.MustMixture(
		[]float64{0.5, 0.5},
		[]*gaussian.Component{
			gaussian.Spherical(linalg.Vector{mean - 2}, variance),
			gaussian.Spherical(linalg.Vector{mean + 2}, variance),
		})
}

func TestMirrorFirstUploadIsSingleNewModel(t *testing.T) {
	m := NewUploadMirror(42)
	msgs := m.Sync(mirrorMix(0, 0.5), 199.6)
	if len(msgs) != 1 {
		t.Fatalf("first sync sent %d messages, want 1", len(msgs))
	}
	got := msgs[0]
	if got.Kind != transport.MsgNewModel || got.SiteID != 42 || got.ModelID != 1 {
		t.Fatalf("first upload = %+v", got)
	}
	if got.Count != 200 {
		t.Fatalf("count = %d, want round(199.6) = 200", got.Count)
	}
	if got.Mixture == nil {
		t.Fatal("upload without mixture payload")
	}
	if m.lastModelID != 1 || m.lastCount != 200 {
		t.Fatalf("mirror state = (%d, %d)", m.lastModelID, m.lastCount)
	}
}

func TestMirrorUploadsOnlyOnChange(t *testing.T) {
	m := NewUploadMirror(1)
	mix := mirrorMix(0, 0.5)
	if got := m.Sync(mix, 100); len(got) != 1 {
		t.Fatalf("first sync sent %d messages", len(got))
	}
	// Identical mixture: silent.
	if got := m.Sync(mirrorMix(0, 0.5), 100); len(got) != 0 {
		t.Fatalf("unchanged mixture re-uploaded: %d messages", len(got))
	}
	// Drift inside the tolerance: still silent.
	if got := m.Sync(mirrorMix(0.05, 0.5), 100); len(got) != 0 {
		t.Fatalf("in-tolerance drift re-uploaded: %d messages", len(got))
	}
	// Material change: deletion of the stale pseudo-model, then the
	// replacement.
	msgs := m.Sync(mirrorMix(40, 0.5), 150)
	if len(msgs) != 2 {
		t.Fatalf("material change sent %d messages, want deletion+new", len(msgs))
	}
	del, nm := msgs[0], msgs[1]
	if del.Kind != transport.MsgDeletion || del.ModelID != 1 || del.Count != 100 {
		t.Fatalf("stale deletion = %+v", del)
	}
	if nm.Kind != transport.MsgNewModel || nm.ModelID != 2 || nm.Count != 150 {
		t.Fatalf("replacement = %+v", nm)
	}
}

func TestMirrorExactDetectsCovarianceOnlyChange(t *testing.T) {
	// ApproxEqual ignores covariances, so tolerance mode treats a
	// variance-only change as "unchanged"; Exact must not.
	tol := NewUploadMirror(1)
	tol.Sync(mirrorMix(0, 0.5), 100)
	if got := tol.Sync(mirrorMix(0, 0.9), 100); len(got) != 0 {
		t.Fatalf("tolerance mode re-uploaded on covariance change: %d messages", len(got))
	}

	ex := NewUploadMirror(1)
	ex.Exact = true
	ex.Sync(mirrorMix(0, 0.5), 100)
	if got := ex.Sync(mirrorMix(0, 0.9), 100); len(got) != 2 {
		t.Fatalf("exact mode missed covariance change: %d messages", len(got))
	}
	// And exact mode is silent on a bit-identical mixture.
	if got := ex.Sync(mirrorMix(0, 0.9), 100); len(got) != 0 {
		t.Fatalf("exact mode re-uploaded identical mixture: %d messages", len(got))
	}
}

func TestMirrorNilMixtureIsNoop(t *testing.T) {
	m := NewUploadMirror(1)
	if got := m.Sync(nil, 100); got != nil {
		t.Fatalf("nil mixture produced %d messages", len(got))
	}
	m.Sync(mirrorMix(0, 0.5), 100)
	// A transiently empty coordinator must not disturb the upload state.
	if got := m.Sync(nil, 0); got != nil {
		t.Fatalf("nil mixture after upload produced %d messages", len(got))
	}
	if m.lastModelID != 1 {
		t.Fatalf("nil sync disturbed state: lastModelID = %d", m.lastModelID)
	}
}

func TestMirrorMinimumCountIsOne(t *testing.T) {
	m := NewUploadMirror(1)
	msgs := m.Sync(mirrorMix(0, 0.5), 0.2)
	if len(msgs) != 1 || msgs[0].Count != 1 {
		t.Fatalf("tiny weight upload = %+v", msgs)
	}
}

func TestMirrorResetRestartsEpochState(t *testing.T) {
	m := NewUploadMirror(7)
	m.Sync(mirrorMix(0, 0.5), 100)
	m.Sync(mirrorMix(40, 0.5), 100)
	if m.lastModelID != 2 {
		t.Fatalf("lastModelID = %d", m.lastModelID)
	}
	// Epoch bump: the parent forgot this pseudo-site, so no deletion is
	// owed and ids restart from 1.
	m.Reset()
	msgs := m.Sync(mirrorMix(40, 0.5), 100)
	if len(msgs) != 1 {
		t.Fatalf("post-reset sync sent %d messages, want a bare NewModel", len(msgs))
	}
	if msgs[0].Kind != transport.MsgNewModel || msgs[0].ModelID != 1 {
		t.Fatalf("post-reset upload = %+v", msgs[0])
	}
}

func TestMirrorInvalidateForcesResend(t *testing.T) {
	m := NewUploadMirror(7)
	m.Sync(mirrorMix(0, 0.5), 100)
	if got := m.Sync(mirrorMix(0, 0.5), 100); len(got) != 0 {
		t.Fatal("sanity: unchanged mixture should be silent")
	}
	// After a transport failure the caller invalidates; the same mixture
	// must go out again, still replacing the (possibly delivered) old id.
	m.Invalidate()
	msgs := m.Sync(mirrorMix(0, 0.5), 100)
	if len(msgs) != 2 {
		t.Fatalf("post-invalidate sync sent %d messages, want deletion+new", len(msgs))
	}
	if msgs[0].ModelID != 1 || msgs[1].ModelID != 2 {
		t.Fatalf("post-invalidate ids = %d, %d", msgs[0].ModelID, msgs[1].ModelID)
	}
}
