package consensus

import (
	"errors"
	"fmt"
	"time"

	"healthcloud/internal/telemetry"
)

// Cluster bundles a set of nodes on one network — the deployment unit the
// blockchain ordering service runs as.
type Cluster struct {
	Net   *Network
	Nodes []*Node
	met   *clusterMetrics
}

// clusterMetrics instruments the ordering path; nil disables it.
type clusterMetrics struct {
	proposals, retries, failures *telemetry.Counter
	propose                      *telemetry.Histogram
}

// SetTelemetry attaches ordering metrics to the registry (nil disables).
func (c *Cluster) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		c.met = nil
		return
	}
	c.met = &clusterMetrics{
		proposals: reg.Counter("consensus_proposals_total"),
		retries:   reg.Counter("consensus_propose_retries_total"),
		failures:  reg.Counter("consensus_propose_failures_total"),
		propose:   reg.Histogram("consensus_propose_seconds"),
	}
}

// NewCluster builds and starts n nodes named node-0..node-{n-1}.
func NewCluster(n int, cfg Config) *Cluster {
	net := NewNetwork()
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("node-%d", i)
	}
	c := &Cluster{Net: net}
	for i, id := range ids {
		nodeCfg := cfg
		if nodeCfg.Seed == 0 {
			nodeCfg.Seed = int64(i + 1)
		}
		c.Nodes = append(c.Nodes, NewNode(id, ids, net, nodeCfg))
	}
	for _, nd := range c.Nodes {
		nd.Start()
	}
	return c
}

// Stop shuts down the network and every node.
func (c *Cluster) Stop() {
	c.Net.Stop()
	for _, n := range c.Nodes {
		n.Stop()
	}
}

// Leader returns the current leader if exactly one node in the highest
// term believes it is leader, else nil.
func (c *Cluster) Leader() *Node {
	var leader *Node
	var topTerm uint64
	for _, n := range c.Nodes {
		if t := n.Term(); t > topTerm {
			topTerm = t
		}
	}
	for _, n := range c.Nodes {
		if n.Role() == Leader && n.Term() == topTerm {
			if leader != nil {
				return nil // split claim, not settled yet
			}
			leader = n
		}
	}
	return leader
}

// WaitForLeader blocks until a leader emerges or the timeout passes.
func (c *Cluster) WaitForLeader(timeout time.Duration) (*Node, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if l := c.Leader(); l != nil {
			return l, nil
		}
		time.Sleep(5 * time.Millisecond) // no-leader backoff
	}
	return nil, errors.New("consensus: no leader elected within timeout")
}

// ProposeAndWait submits data through the current leader and waits until
// a majority has committed it (observed via the leader's commit index).
// Delivery is at-least-once: if an attempt's outcome cannot be confirmed
// (for example the chosen leader turns out to be a deposed node on the
// wrong side of a partition), the proposal is retried through the next
// leader, so callers that need exactly-once must deduplicate by content —
// the blockchain layer does so by transaction ID.
func (c *Cluster) ProposeAndWait(data []byte, timeout time.Duration) (uint64, error) {
	var start time.Time
	if c.met != nil {
		c.met.proposals.Inc()
		start = c.met.propose.Start()
	}
	idx, err := c.proposeAndWait(data, timeout)
	if c.met != nil {
		c.met.propose.ObserveSince(start)
		if err != nil {
			c.met.failures.Inc()
		}
	}
	return idx, err
}

func (c *Cluster) proposeAndWait(data []byte, timeout time.Duration) (uint64, error) {
	deadline := time.Now().Add(timeout)
	attempts := 0
	for time.Now().Before(deadline) {
		l := c.Leader()
		if l == nil {
			time.Sleep(5 * time.Millisecond) // no-leader backoff
			continue
		}
		attempts++
		if c.met != nil && attempts > 1 {
			c.met.retries.Inc()
		}
		idx, term, err := l.Propose(data)
		if errors.Is(err, ErrNotLeader) {
			continue // leadership moved between Leader() and Propose
		}
		if err != nil {
			return 0, err
		}
		// Wait for commit, but only briefly: a stale leader stranded in a
		// minority partition would otherwise trap us until the full
		// deadline. If the attempt can't be confirmed in time, the node is
		// deposed first, or the entry was overwritten by a newer leader
		// (the term check), re-evaluate leadership and retry.
		wait := 300 * time.Millisecond
		if left := time.Until(deadline); left < wait {
			wait = left
		}
		if l.AwaitCommit(idx, wait) && l.TermAt(idx) == term {
			return idx, nil
		}
	}
	return 0, errors.New("consensus: proposal did not commit within timeout")
}
