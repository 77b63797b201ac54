package dst

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
	"cludistream/internal/tree"
)

// smallTreeScenario hand-builds a compact tree scenario (6 sites behind
// two aggregators) for the fast, targeted harness tests; the generator
// sweep covers the 100+-site shapes.
func smallTreeScenario(seed int64) TreeScenario {
	topo, err := tree.Spec{Leaves: 6, AggLayers: 1, FanOut: 3, Link: tree.LinkSpec{Latency: 0.01}}.Build()
	if err != nil {
		panic(err)
	}
	sc := TreeScenario{
		Seed:        seed,
		Dim:         1,
		K:           2,
		ChunkSize:   60,
		Topology:    topo,
		ArrivalRate: 1000,
	}
	for i := 0; i < topo.NumSites(); i++ {
		sc.Sites = append(sc.Sites, SiteScript{
			StreamSeed: seed ^ (int64(i+1) * 7919),
			Regimes: []Regime{
				{Mean: regimePalette[i%3], Chunks: 2},
				{Mean: regimePalette[(i+1)%3], Chunks: 1},
			},
		})
	}
	return sc
}

func TestGenerateTreeIsDeterministicAndValid(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		a, b := GenerateTree(seed, true), GenerateTree(seed, true)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: generation is not deterministic", seed)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if n := a.NumSites(); n < 100 || n > 220 {
			t.Fatalf("seed %d: %d sites outside the short-mode 100..220 range", seed, n)
		}
		if d := a.Topology.Depth(); d < 2 || d > 3 {
			t.Fatalf("seed %d: depth %d, want 2..3 (1-2 aggregator layers)", seed, d)
		}
	}
	// Long mode reaches deeper and wider.
	long := GenerateTree(7, false)
	if err := long.Validate(); err != nil {
		t.Fatal(err)
	}
	if n := long.NumSites(); n < 100 || n > 1000 {
		t.Fatalf("long mode: %d sites outside 100..1000", n)
	}
}

func TestRunTreeGreenSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed tree sweep")
	}
	sawCrash, sawFault := false, false
	for seed := int64(1); seed <= 5; seed++ {
		sc := GenerateTree(seed, true)
		res, err := RunTree(sc, TreeOptions{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Violation != nil {
			t.Fatalf("seed %d: %v", seed, res.Violation)
		}
		if res.Updates == 0 {
			t.Fatalf("seed %d: no updates applied", seed)
		}
		if len(res.LayerBytes) != sc.Topology.Depth() {
			t.Fatalf("seed %d: %d layer-byte entries for depth %d", seed, len(res.LayerBytes), sc.Topology.Depth())
		}
		if len(sc.Crashes) > 0 {
			sawCrash = true
			if res.Recovery.Restarts < len(sc.Crashes) {
				t.Fatalf("seed %d: %d restarts for %d scheduled crashes", seed, res.Recovery.Restarts, len(sc.Crashes))
			}
		}
		if sc.DropProb > 0 || sc.DupProb > 0 {
			sawFault = true
		}
		// The aggregation dividend: the root tracks one pseudo-model per
		// direct child, not one model per site.
		if res.RootMemoryBytes >= res.FlatMemoryBytes {
			t.Fatalf("seed %d: root coordinator memory %d >= flat deployment's %d — fan-in bought nothing",
				seed, res.RootMemoryBytes, res.FlatMemoryBytes)
		}
	}
	if !sawCrash || !sawFault {
		t.Fatalf("sweep exercised crash=%v fault=%v; widen the seed range", sawCrash, sawFault)
	}
}

func TestRunTreeReplayBitIdentical(t *testing.T) {
	sc := smallTreeScenario(11)
	sc.DropProb, sc.DupProb = 0.2, 0.2
	var cores [2][]byte
	for i := range cores {
		res, err := RunTree(sc, TreeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Violation != nil {
			t.Fatal(res.Violation)
		}
		core := TreeCore{
			Seed:           res.Scenario.Seed,
			Updates:        res.Updates,
			SimTime:        res.SimTime,
			Fingerprint:    res.Fingerprint,
			RefFingerprint: res.RefFingerprint,
		}
		b, err := json.Marshal(core)
		if err != nil {
			t.Fatal(err)
		}
		cores[i] = b
	}
	if !bytes.Equal(cores[0], cores[1]) {
		t.Fatalf("replays diverged:\n%s\n%s", cores[0], cores[1])
	}
}

func TestRunTreeAggregatorCrashGreen(t *testing.T) {
	sc := smallTreeScenario(13)
	sc.DropProb, sc.DupProb = 0.1, 0.1
	sc.Crashes = []tree.CrashSpec{{Node: 1, Start: 0.1, End: 0.16}}
	sc.CheckpointEvery = 3
	sc.WALFsync = "always"
	res, err := RunTree(sc, TreeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatal(res.Violation)
	}
	if res.Recovery.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", res.Recovery.Restarts)
	}
}

// TestRunTreeDedupeFaultHasTeeth proves the per-hop exactly-once
// invariant catches a real dedupe regression: with every node's dedupe
// broken and duplicates guaranteed, the suite must fail, deterministically.
func TestRunTreeDedupeFaultHasTeeth(t *testing.T) {
	sc := smallTreeScenario(17)
	sc.DupProb = 0.9
	var first *Violation
	for i := 0; i < 2; i++ {
		res, err := RunTree(sc, TreeOptions{InjectDedupeFault: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Violation == nil {
			t.Fatal("broken dedupe under 90% duplication produced no violation")
		}
		if res.Violation.Invariant != "exactly-once" {
			t.Fatalf("violation invariant %q, want exactly-once (%s)", res.Violation.Invariant, res.Violation.Detail)
		}
		if first == nil {
			first = res.Violation
		} else if *first != *res.Violation {
			t.Fatalf("teeth test is not deterministic:\n%+v\n%+v", first, res.Violation)
		}
	}
}

// TestMixturesDiff pins what the root-vs-flat check accepts: identical
// mixtures up to rounding, and a regrouping of one component at the merge
// gate (the greedy grouping's order dependence). It must reject a
// regrouping of components far apart even when the moments of what was
// regrouped still agree, and mass moved inside a regrouping.
func TestMixturesDiff(t *testing.T) {
	type part struct{ w, mean, v float64 }
	mix := func(parts ...part) *gaussian.Mixture {
		var ws []float64
		var cs []*gaussian.Component
		for _, p := range parts {
			cov := linalg.NewSym(1)
			cov.Set(0, 0, p.v)
			ws = append(ws, p.w)
			cs = append(cs, gaussian.MustComponent(linalg.Vector{p.mean}, cov))
		}
		m, err := gaussian.NewMixture(ws, cs)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	// merged is the moment-preserving merge of a and b.
	merged := func(a, b part) part {
		w := a.w + b.w
		mean := (a.w*a.mean + b.w*b.mean) / w
		return part{w, mean, (a.w*(a.v+a.mean*a.mean)+b.w*(b.v+b.mean*b.mean))/w - mean*mean}
	}
	lo, hi := part{0.3, -4, 1}, part{0.197, 4, 1}
	// stray sits just past the gate (4·d = 4) from hi: CrossMahalanobisSq ≈ 4.8.
	stray := part{0.003, 4.63, 0.094}
	left, right := part{0.25, 196, 1}, part{0.25, 204, 1}
	flat := mix(lo, hi, stray, left, right)
	for _, tc := range []struct {
		name   string
		root   *gaussian.Mixture
		accept bool
	}{
		{"identical", flat, true},
		{"rounding", mix(lo, part{hi.w, hi.mean * (1 + 1e-12), hi.v}, stray, left, right), true},
		{"gate regrouping", mix(lo, merged(hi, stray), left, right), true},
		{"far regrouping", mix(lo, hi, stray, merged(left, right)), false},
		{"mass moved in a regrouping", mix(part{lo.w - 0.001, lo.mean, lo.v}, merged(part{hi.w + 0.001, hi.mean, hi.v}, stray), left, right), false},
		{"component lost", mix(lo, hi, left, right), false},
		{"nil root", nil, false},
	} {
		diff := mixturesDiff(tc.root, flat)
		if (diff == "") != tc.accept {
			t.Errorf("%s: accept = %v, want %v (%s)", tc.name, diff == "", tc.accept, diff)
		}
	}
}

func TestTreeScenarioRoundTrip(t *testing.T) {
	sc := GenerateTree(23, true)
	var buf bytes.Buffer
	if err := WriteTreeScenario(&buf, sc); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTreeScenario(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sc) {
		t.Fatal("scenario did not round-trip through the envelope")
	}
}

func TestTreeArtifactRoundTrip(t *testing.T) {
	sc := smallTreeScenario(29)
	sc.DupProb = 0.9
	res, err := RunTree(sc, TreeOptions{InjectDedupeFault: true})
	if err != nil {
		t.Fatal(err)
	}
	a := res.ToArtifact()
	if a == nil {
		t.Fatal("violating run produced no artifact")
	}
	var buf bytes.Buffer
	if err := WriteTreeArtifact(&buf, a); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTreeArtifact(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Core() != a.Core() {
		t.Fatalf("artifact core did not round-trip:\n%+v\n%+v", got.Core(), a.Core())
	}
	if err := got.Scenario.Validate(); err != nil {
		t.Fatalf("embedded scenario invalid after round-trip: %v", err)
	}
	// The embedded scenario replays to the same violation.
	res2, err := RunTree(got.Scenario, TreeOptions{InjectDedupeFault: true})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Violation == nil || *res2.Violation != got.Violation {
		t.Fatalf("replayed violation %+v != artifact violation %+v", res2.Violation, got.Violation)
	}
}
