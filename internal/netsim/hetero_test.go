package netsim

import "testing"

// TestSlowLinkDoesNotStallSiblings: links are independently serialized —
// a bandwidth-starved child queues behind its own busyUntil, while a
// sibling on a fast link delivers at pure propagation latency regardless
// of how much traffic the slow link is digesting.
func TestSlowLinkDoesNotStallSiblings(t *testing.T) {
	sim := NewSimulator()
	var slowTimes, fastTimes []float64
	slow, err := sim.NewLink(0.01, 100, func([]byte) { slowTimes = append(slowTimes, sim.Now()) })
	if err != nil {
		t.Fatal(err)
	}
	fast, err := sim.NewLink(0.01, 0, func([]byte) { fastTimes = append(fastTimes, sim.Now()) })
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 100) // 1 simulated second per frame on the slow link
	for i := 0; i < 3; i++ {
		slow.Send(payload)
		fast.Send(payload)
	}
	sim.Run()
	if len(slowTimes) != 3 || len(fastTimes) != 3 {
		t.Fatalf("deliveries: slow=%d fast=%d", len(slowTimes), len(fastTimes))
	}
	// All fast deliveries land at the propagation latency: the sibling
	// never waits on the slow link's transmission queue.
	for i, at := range fastTimes {
		if at != 0.01 {
			t.Fatalf("fast delivery %d at %v, want 0.01", i, at)
		}
	}
	// The slow link serializes its own frames: 1s, 2s, 3s of transmission
	// time plus latency.
	for i, at := range slowTimes {
		want := float64(i+1) + 0.01
		if at != want {
			t.Fatalf("slow delivery %d at %v, want %v", i, at, want)
		}
	}
}
