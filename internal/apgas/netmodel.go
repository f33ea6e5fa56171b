package apgas

import "time"

// NetModel charges simulated interconnect time for place-to-place traffic.
// Intra-place operations are free. The model is deliberately simple — a
// fixed per-message latency plus a per-byte transfer time — because the
// paper's measured effects (resilient-finish bookkeeping traffic to place
// zero, checkpoint data movement to the backup place) depend only on message
// counts and payload volumes.
//
// The zero NetModel is a free network, which is what unit tests use.
type NetModel struct {
	// Latency is charged once per message crossing places.
	Latency time.Duration
	// BytePeriod is charged per payload byte crossing places
	// (1 / bandwidth). Zero means infinitely fast transfers.
	BytePeriod time.Duration
}

// delay returns the simulated time for a message of the given payload size.
func (n NetModel) delay(bytes int) time.Duration {
	return n.Latency + time.Duration(bytes)*n.BytePeriod
}
