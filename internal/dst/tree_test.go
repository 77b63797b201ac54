package dst

import (
	"reflect"
	"testing"

	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
)

func TestGenerateTreeIsDeterministicAndValid(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		a, b := GenerateTree(seed, true), GenerateTree(seed, true)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: generation is not deterministic", seed)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if n := len(a.Sites); n < 100 || n > 220 {
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
	if n := len(long.Sites); n < 100 || n > 1000 {
		t.Fatalf("long mode: %d sites outside 100..1000", n)
	}
}

// TestTreeScenarioRoundTrip: generated tree scenarios, topology and
// aggregator faults included, survive the same artifact envelope as flat
// ones bit-identically.
func TestTreeScenarioRoundTrip(t *testing.T) {
	checkScenarioRoundTrip(t, []Scenario{GenerateTree(23, true), GenerateTree(7, false)})
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
		_, diff := mixturesDiff(tc.root, flat)
		if (diff == "") != tc.accept {
			t.Errorf("%s: accept = %v, want %v (%s)", tc.name, diff == "", tc.accept, diff)
		}
	}
}

// TestGateRegroupingOnRealSeeds pins two short tree seeds whose root
// passes the emission-reference check only through the gate-regrouping
// branch of mixturesDiff: each run is green and leaves a non-empty
// unpaired set. Each of the branch's two conditions then has to reject a
// perturbation of the same real root that only it catches: two far-apart
// components merged into one (the regrouped moments still fold to the
// reference's, so only the gate distance rejects it), and one component's
// mean moved by 0.01 (still within the gate of its counterpart, so only
// the folded moments reject it).
func TestGateRegroupingOnRealSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("two full tree runs")
	}
	for _, seed := range []int64{28, 106} {
		res, chk, err := run(GenerateTree(seed, true), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Violation != nil {
			t.Fatalf("seed %d: %v", seed, res.Violation)
		}
		root, ref := chk.dep.RootMixture(), chk.ref.GlobalMixture()
		if unpaired, diff := mixturesDiff(root, ref); diff != "" || unpaired == 0 {
			t.Fatalf("seed %d: %d unpaired components (%q), want the gate-regrouping branch to accept", seed, unpaired, diff)
		}

		ws, cs := make([]float64, root.K()), make([]*gaussian.Component, root.K())
		for i := range cs {
			ws[i], cs[i] = root.Weight(i), root.Component(i)
		}
		far := [2]int{}
		for i := range cs {
			for j := i + 1; j < len(cs); j++ {
				if gaussian.CrossMahalanobisSq(cs[i], cs[j]) > gaussian.CrossMahalanobisSq(cs[far[0]], cs[far[1]]) {
					far = [2]int{i, j}
				}
			}
		}
		w, mean, cov := gaussian.MomentMerge(ws[far[0]], cs[far[0]], ws[far[1]], cs[far[1]])
		var mws []float64
		var mcs []*gaussian.Component
		for i := range cs {
			if i != far[0] && i != far[1] {
				mws, mcs = append(mws, ws[i]), append(mcs, cs[i])
			}
		}
		merged := gaussian.MustMixture(append(mws, w), append(mcs, gaussian.MustComponent(mean, cov)))

		moved := append([]*gaussian.Component(nil), cs...)
		shifted := cs[0].Mean().Clone()
		shifted[0] += 0.01
		moved[0] = gaussian.MustComponent(shifted, cs[0].Cov())

		for name, m := range map[string]*gaussian.Mixture{
			"far pair merged": merged,
			"component moved": gaussian.MustMixture(ws, moved),
		} {
			if _, diff := mixturesDiff(m, ref); diff == "" {
				t.Errorf("seed %d: %s: accepted", seed, name)
			}
		}
	}
}
