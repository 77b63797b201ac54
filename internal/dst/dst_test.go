package dst

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
	"cludistream/internal/persist"
	"cludistream/internal/tree"
)

// mustGreen runs a scenario that must pass the whole suite and exercise
// something.
func mustGreen(t *testing.T, sc Scenario) *Result {
	t.Helper()
	res, err := Run(sc, Options{})
	if err != nil {
		t.Fatalf("seed %d: %v", sc.Seed, err)
	}
	if res.Violation != nil {
		t.Fatalf("seed %d: %v", sc.Seed, res.Violation)
	}
	if res.Updates == 0 {
		t.Fatalf("seed %d: no updates applied — scenario exercised nothing", sc.Seed)
	}
	return res
}

// TestSeededScenariosGreen is the harness's bread and butter: every seed
// generates a different deployment and fault schedule, and the whole
// invariant suite must hold on all of them. `make dst` sweeps 150 seeds of
// each generator through cmd/dst; this test keeps a smaller always-on
// sample in go test.
func TestSeededScenariosGreen(t *testing.T) {
	t.Run("flat", func(t *testing.T) {
		n := int64(12)
		if testing.Short() {
			n = 5
		}
		for seed := int64(1); seed <= n; seed++ {
			if res := mustGreen(t, Generate(seed, true)); res.Fingerprint != res.RefFingerprint {
				t.Fatalf("seed %d: fingerprints differ without a violation", seed)
			}
		}
	})
	t.Run("tree", func(t *testing.T) {
		if testing.Short() {
			t.Skip("multi-seed tree sweep")
		}
		sawCrash, sawFault := false, false
		for seed := int64(1); seed <= 5; seed++ {
			sc := GenerateTree(seed, true)
			res := mustGreen(t, sc)
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
			if res.RootMemoryBytes >= res.RefMemoryBytes {
				t.Fatalf("seed %d: root coordinator memory %d >= the reference's %d — fan-in bought nothing",
					seed, res.RootMemoryBytes, res.RefMemoryBytes)
			}
		}
		if !sawCrash || !sawFault {
			t.Fatalf("sweep exercised crash=%v fault=%v; widen the seed range", sawCrash, sawFault)
		}
	})
	t.Run("aggregator-crash", func(t *testing.T) {
		sc := smallTreeScenario(13)
		sc.DropProb, sc.DupProb = 0.1, 0.1
		sc.Crashes = []tree.CrashSpec{{Node: 1, Start: 0.1, End: 0.16}}
		sc.CheckpointEvery = 3
		sc.WALFsync = "always"
		if res := mustGreen(t, sc); res.Recovery.Restarts != 1 {
			t.Fatalf("restarts = %d, want 1", res.Recovery.Restarts)
		}
	})
}

// dedupeBugScenario is a deterministic flat scenario that duplicates every
// delivery (DupProb 1) — the stress the injected dedupe regression must
// fail under no matter how other fault draws perturb the RNG stream.
func dedupeBugScenario() Scenario {
	return Scenario{
		Seed:      424242,
		Dim:       1,
		K:         2,
		ChunkSize: 100,
		Topology:  tree.Topology{Leaves: []tree.LeafSpec{{Link: tree.LinkSpec{Latency: 0.05}}}},
		DupProb:   1,
		Sites: []SiteScript{{
			StreamSeed: 9001,
			Regimes:    []Regime{{Mean: 0, Chunks: 2}, {Mean: 200, Chunks: 2}, {Mean: 0, Chunks: 2}},
		}},
		ArrivalRate: 1000,
	}
}

// smallTreeScenario hand-builds a compact tree scenario (6 sites behind
// two aggregators) for the fast, targeted harness tests; the generator
// sweep covers the 100+-site shapes.
func smallTreeScenario(seed int64) Scenario {
	topo, err := tree.Spec{Leaves: 6, AggLayers: 1, FanOut: 3, Link: tree.LinkSpec{Latency: 0.01}}.Build()
	if err != nil {
		panic(err)
	}
	sc := Scenario{
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

// dedupeTreeScenario is smallTreeScenario under 90% duplication, the
// tree twin of dedupeBugScenario.
func dedupeTreeScenario(seed int64) Scenario {
	sc := smallTreeScenario(seed)
	sc.DupProb = 0.9
	return sc
}

// TestInjectedDedupeBugCaught proves the invariant suite has teeth: with
// every node's sequence-number dedupe deliberately broken, the per-hop
// exactly-once invariant must flag the first double-applied update, in a
// star and in a tree.
func TestInjectedDedupeBugCaught(t *testing.T) {
	for name, sc := range map[string]Scenario{"flat": dedupeBugScenario(), "tree": dedupeTreeScenario(17)} {
		t.Run(name, func(t *testing.T) {
			res, err := Run(sc, Options{InjectDedupeFault: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.Violation == nil {
				t.Fatal("broken dedupe not detected: invariant suite has no teeth")
			}
			if res.Violation.Invariant != "exactly-once" {
				t.Fatalf("violation = %v, want the exactly-once invariant", res.Violation)
			}
			if !strings.Contains(res.Violation.Detail, "twice") {
				t.Errorf("violation detail %q does not name the duplicate application", res.Violation.Detail)
			}
			if len(res.Journal) == 0 {
				t.Error("failure result carries no journal slice")
			}
			// The same scenario with the dedupe intact must be green.
			mustGreen(t, sc)
		})
	}
}

// TestLandmarkDeletionCaught: a landmark site expires nothing, so a
// deletion applied from one is a fit-soundness violation that no other
// invariant catches — every ledger prices and applies it consistently. The
// test forges one into the live-epoch tally of a green run's first leaf, in
// a star and in a tree.
func TestLandmarkDeletionCaught(t *testing.T) {
	for name, sc := range map[string]Scenario{"flat": dedupeBugScenario(), "tree": smallTreeScenario(11)} {
		t.Run(name, func(t *testing.T) {
			res, chk, err := run(sc, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Violation != nil {
				t.Fatal(res.Violation)
			}
			tally := chk.applied[hop{node: sc.Topology.Leaves[0].Parent, child: 1}][chk.live[0]]
			if tally == nil {
				t.Fatal("leaf 0's live epoch applied nothing at its parent")
			}
			tally.deletions++
			chk.checkSite(0, false)
			if chk.violation == nil || chk.violation.Invariant != "fit-soundness" || !strings.Contains(chk.violation.Detail, "landmark") {
				t.Fatalf("violation = %v, want fit-soundness on the landmark deletion", chk.violation)
			}
		})
	}
}

// TestPinnedSnapshotMutationCaught: a pinned query-tier snapshot whose
// served bits change after publish is a snapshot-consistency violation.
// The test flips one mean of a green run's first pin.
func TestPinnedSnapshotMutationCaught(t *testing.T) {
	for name, sc := range map[string]Scenario{"flat": Generate(1, true), "tree": smallTreeScenario(11)} {
		t.Run(name, func(t *testing.T) {
			res, chk, err := run(sc, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Violation != nil {
				t.Fatal(res.Violation)
			}
			if len(chk.held) == 0 {
				t.Fatal("the run pinned no snapshot")
			}
			chk.held[0].sn.Component(0).Mean()[0] += 1e-9
			chk.recheckHeldSnapshots()
			if chk.violation == nil || chk.violation.Invariant != "snapshot-consistency" {
				t.Fatalf("violation = %v, want snapshot-consistency on the mutated pin", chk.violation)
			}
		})
	}
}

// TestReplayBitIdentical pins the determinism contract: replaying a
// scenario reproduces the same core — violation, update count, virtual
// time and fingerprints — twice in a row, byte for byte, for a failing
// star and a green tree under loss and duplication.
func TestReplayBitIdentical(t *testing.T) {
	treeSc := smallTreeScenario(11)
	treeSc.DropProb, treeSc.DupProb = 0.2, 0.2
	for _, tc := range []struct {
		name   string
		sc     Scenario
		inject bool
	}{
		{"flat", dedupeBugScenario(), true},
		{"tree", treeSc, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var cores [][]byte
			for i := 0; i < 2; i++ {
				res, err := Run(tc.sc, Options{InjectDedupeFault: tc.inject})
				if err != nil {
					t.Fatal(err)
				}
				if (res.Violation != nil) != tc.inject {
					t.Fatalf("replay %d: violation %v, want one iff the dedupe is broken", i, res.Violation)
				}
				core, err := json.Marshal(res.Core())
				if err != nil {
					t.Fatal(err)
				}
				cores = append(cores, core)
			}
			if !bytes.Equal(cores[0], cores[1]) {
				t.Fatalf("replays diverged:\n%s\n%s", cores[0], cores[1])
			}
		})
	}
}

// TestShrinkMinimizes checks the greedy minimizer strips scenario elements
// that are irrelevant to the violation while preserving it, in a star and
// in a tree.
func TestShrinkMinimizes(t *testing.T) {
	if testing.Short() {
		t.Skip("shrink runs many scenarios")
	}
	flat := dedupeBugScenario()
	flat.Outages = []Outage{{Start: 0.1, End: 0.4}, {Start: 0.9, End: 1.2, Restart: true}}
	padded := dedupeTreeScenario(19)
	padded.Outages = []Outage{{Node: 1, Start: 0.05, End: 0.15}}
	padded.Crashes = []tree.CrashSpec{{Node: 2, Start: 0.1, End: 0.16}}
	padded.CheckpointEvery = 3
	for name, sc := range map[string]Scenario{"flat": flat, "tree": padded} {
		t.Run(name, func(t *testing.T) {
			// Pad the scenario with faults the dedupe bug does not need.
			sc.DropProb = 0.1
			min, runs := Shrink(sc, Options{InjectDedupeFault: true})
			if runs < 2 {
				t.Fatalf("shrink ran only %d scenarios", runs)
			}
			res, err := Run(min, Options{InjectDedupeFault: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.Violation == nil {
				t.Fatal("shrunk scenario no longer fails")
			}
			if min.DropProb != 0 || len(min.Outages) != 0 || len(min.Crashes) != 0 {
				t.Errorf("irrelevant faults survived the shrink: DropProb=%v Outages=%v Crashes=%v", min.DropProb, min.Outages, min.Crashes)
			}
			if min.DupProb == 0 {
				t.Error("shrink removed the duplicate delivery the bug needs")
			}
			if len(min.Sites) != 1 || len(min.Topology.Aggs) != 0 {
				t.Errorf("shrunk deployment kept %d sites behind %d aggregators, want one site on the root", len(min.Sites), len(min.Topology.Aggs))
			}
		})
	}
}

// TestScenarioJSONRoundTrip: generated flat scenarios survive the
// artifact envelope bit-identically — the property that makes artifacts
// self-contained repro cases.
func TestScenarioJSONRoundTrip(t *testing.T) {
	var scs []Scenario
	for seed := int64(1); seed <= 20; seed++ {
		scs = append(scs, Generate(seed, seed%2 == 0))
	}
	checkScenarioRoundTrip(t, scs)
}

// checkScenarioRoundTrip writes each scenario in an artifact envelope and
// requires it to read back unchanged.
func checkScenarioRoundTrip(t *testing.T, scs []Scenario) {
	t.Helper()
	for _, sc := range scs {
		var buf bytes.Buffer
		if err := WriteArtifact(&buf, &Artifact{Scenario: sc}); err != nil {
			t.Fatal(err)
		}
		got, err := ReadArtifact(&buf)
		if err != nil {
			t.Fatalf("seed %d: %v", sc.Seed, err)
		}
		if !reflect.DeepEqual(got.Scenario, sc) {
			t.Fatalf("seed %d: round-trip changed the scenario:\n got %+v\nwant %+v", sc.Seed, got.Scenario, sc)
		}
	}
}

// TestArtifactRoundTrip: artifacts survive their envelope and their
// embedded scenario replays to the same core; corrupted, foreign or
// outdated inputs surface persist.ErrBadFormat instead of garbage.
func TestArtifactRoundTrip(t *testing.T) {
	for name, sc := range map[string]Scenario{"flat": dedupeBugScenario(), "tree": dedupeTreeScenario(29)} {
		t.Run(name, func(t *testing.T) {
			res, err := Run(sc, Options{InjectDedupeFault: true})
			if err != nil {
				t.Fatal(err)
			}
			art := res.ToArtifact()
			if art == nil {
				t.Fatal("no artifact")
			}
			var buf bytes.Buffer
			if err := WriteArtifact(&buf, art); err != nil {
				t.Fatal(err)
			}
			got, err := ReadArtifact(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if got.Core != art.Core {
				t.Fatalf("artifact core changed in round-trip:\n got %+v\nwant %+v", got.Core, art.Core)
			}
			replayed, err := Run(got.Scenario, Options{InjectDedupeFault: true})
			if err != nil {
				t.Fatal(err)
			}
			if replayed.Core() != got.Core {
				t.Fatalf("embedded scenario replayed to %+v, artifact holds %+v", replayed.Core(), got.Core)
			}
		})
	}

	for name, data := range map[string][]byte{
		"not json":         []byte("clearly not json"),
		"wrong format":     []byte(`{"format":"something-else","version":1,"payload":{}}`),
		"future version":   []byte(`{"format":"cludistream-dst-artifact","version":99,"payload":{}}`),
		"old version":      []byte(`{"format":"cludistream-dst-artifact","version":2,"payload":{}}`),
		"no payload":       []byte(`{"format":"cludistream-dst-artifact","version":3}`),
		"invalid scenario": []byte(`{"format":"cludistream-dst-artifact","version":3,"payload":{"scenario":{"seed":1,"dim":0}}}`),
	} {
		if _, err := ReadArtifact(bytes.NewReader(data)); !errors.Is(err, persist.ErrBadFormat) {
			t.Errorf("%s: error %v, want ErrBadFormat", name, err)
		}
	}
}

// TestFingerprintCanonical: the fingerprint must ignore component order
// and nothing else.
func TestFingerprintCanonical(t *testing.T) {
	c1 := gaussian.Spherical(linalg.Vector{0}, 1)
	c2 := gaussian.Spherical(linalg.Vector{5}, 2)
	a := gaussian.MustMixture([]float64{0.25, 0.75}, []*gaussian.Component{c1, c2})
	b := gaussian.MustMixture([]float64{0.75, 0.25}, []*gaussian.Component{c2, c1})
	if Fingerprint(a) != Fingerprint(b) {
		t.Error("fingerprint depends on component order")
	}
	c := gaussian.MustMixture([]float64{0.26, 0.74}, []*gaussian.Component{c1, c2})
	if Fingerprint(a) == Fingerprint(c) {
		t.Error("fingerprint ignores a weight change")
	}
	if Fingerprint(nil) != 0 {
		t.Error("nil mixture must fingerprint to 0")
	}
}
