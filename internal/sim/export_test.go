package sim

// Accessors only the tests read.

// At returns the time the timer is scheduled to fire.
func (t *Timer) At() float64 { return t.at }

// Pending returns the number of live scheduled events (cancelled timers
// awaiting lazy deletion are excluded).
func (e *Engine) Pending() int { return len(e.heap) - e.dead }

// RunUntilIdle executes events until none remain.
func (e *Engine) RunUntilIdle() {
	for e.Step() {
	}
}

// From returns the uploading node.
func (f *Flow) From() NodeID { return f.from }

// To returns the downloading node.
func (f *Flow) To() NodeID { return f.to }

// Rate returns the flow's current fluid rate in bytes/second. In the
// default deferred-retime mode the value is exact as of the last flush
// (the end of the previous event); same-instant churn lands at the next
// flush, before simulated time advances.
func (f *Flow) Rate() float64 { return f.rate }

// ActiveUploads returns the number of flows currently leaving id.
func (n *Net) ActiveUploads(id NodeID) int { return n.nodes[id].upFlows.n }

// ActiveDownloads returns the number of flows currently entering id.
func (n *Net) ActiveDownloads(id NodeID) int { return n.nodes[id].dnFlows.n }

// FlowFunc adapts a plain function to FlowDone.
type FlowFunc func()

// FlowDone implements FlowDone by calling f.
func (f FlowFunc) FlowDone() { f() }
