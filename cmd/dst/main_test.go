package main

import (
	"path/filepath"
	"testing"

	"cludistream/internal/dst"
)

// TestArtifactReplaysFromFile: the artifact a failing sweep writes is what
// replay and shrink load. Loaded through the CLI's own loader, it replays
// to the same core, for a flat and a tree seed failing under the injected
// dedupe bug.
func TestArtifactReplaysFromFile(t *testing.T) {
	opts := dst.Options{InjectDedupeFault: true}
	for name, sc := range map[string]dst.Scenario{"flat": dst.Generate(4, true), "tree": dst.GenerateTree(6, true)} {
		t.Run(name, func(t *testing.T) {
			res, err := dst.Run(sc, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Violation == nil {
				t.Fatal("seed does not fail under the injected dedupe bug")
			}
			path := filepath.Join(t.TempDir(), "dst-fail.json")
			if err := writeArtifact(path, res); err != nil {
				t.Fatal(err)
			}
			loaded, err := loadScenario(path, 0, dst.Generate, false)
			if err != nil {
				t.Fatal(err)
			}
			replayed, err := dst.Run(loaded, opts)
			if err != nil {
				t.Fatal(err)
			}
			if replayed.Core() != res.Core() {
				t.Fatalf("artifact replayed to %+v, the run that wrote it ended %+v", replayed.Core(), res.Core())
			}
		})
	}
}
