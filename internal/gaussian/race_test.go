//go:build race

package gaussian

// The race detector makes sync.Pool drop items at random, so pooled
// scratch allocates under -race and allocation tests skip there.
func init() { raceEnabled = true }
