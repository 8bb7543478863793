// Package consensus implements a Raft-style replicated log used as the
// ordering service of the platform's permissioned blockchain networks
// (§IV). The paper's ledgers are "permissioned blockchain system[s] such
// as Hyperledger"; Hyperledger Fabric orders transactions through a Raft
// ordering service, so this package provides the same substrate: leader
// election, log replication, and commit notification, over an in-process
// message network with injectable delays, drops, and partitions for
// failure testing.
package consensus

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// Role is a node's current Raft role.
type Role int

// Raft roles.
const (
	Follower Role = iota + 1
	Candidate
	Leader
)

// String returns the role name.
func (r Role) String() string {
	switch r {
	case Follower:
		return "follower"
	case Candidate:
		return "candidate"
	case Leader:
		return "leader"
	default:
		return fmt.Sprintf("role(%d)", int(r))
	}
}

// Entry is one replicated log record.
type Entry struct {
	Term  uint64
	Index uint64
	Data  []byte
}

// Committed is delivered on a node's apply channel for each entry once it
// is known committed.
type Committed struct {
	Entry Entry
}

// Message kinds exchanged between nodes.
type msgKind int

const (
	msgRequestVote msgKind = iota + 1
	msgVoteReply
	msgAppendEntries
	msgAppendReply
)

// message is the single wire format between nodes.
type message struct {
	kind msgKind
	from string
	term uint64

	// RequestVote
	candidateID  string
	lastLogIndex uint64
	lastLogTerm  uint64

	// VoteReply
	voteGranted bool

	// AppendEntries
	prevLogIndex uint64
	prevLogTerm  uint64
	entries      []Entry
	leaderCommit uint64

	// AppendReply
	success    bool
	matchIndex uint64
}

// ErrNotLeader is returned by Propose on a non-leader node.
var ErrNotLeader = errors.New("consensus: not the leader")

// ErrStopped is returned when the node has shut down.
var ErrStopped = errors.New("consensus: node stopped")

// Config tunes a node. Zero fields get sensible test-speed defaults.
type Config struct {
	// ElectionTimeoutMin/Max bound the randomized election timeout.
	ElectionTimeoutMin time.Duration
	ElectionTimeoutMax time.Duration
	// HeartbeatInterval is the leader's idle append cadence.
	HeartbeatInterval time.Duration
	// Seed seeds the node's private RNG for reproducible elections.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.ElectionTimeoutMin == 0 {
		c.ElectionTimeoutMin = 50 * time.Millisecond
	}
	if c.ElectionTimeoutMax == 0 {
		c.ElectionTimeoutMax = 100 * time.Millisecond
	}
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = 15 * time.Millisecond
	}
	return c
}

// Node is one Raft participant.
type Node struct {
	id    string
	peers []string // all cluster members including self
	net   *Network
	cfg   Config
	rng   *rand.Rand

	mu          sync.Mutex
	role        Role
	currentTerm uint64
	votedFor    string
	log         []Entry // log[0] is a sentinel at index 0
	commitIndex uint64
	lastApplied uint64
	nextIndex   map[string]uint64
	matchIndex  map[string]uint64
	votes       map[string]bool
	electionAt  time.Time
	// changed is closed (and cleared) whenever commitIndex advances or
	// the node steps down; AwaitCommit waiters block on it. Nil while
	// nobody waits, so followers never allocate it.
	changed chan struct{}

	applyCh chan Committed
	inbox   chan message
	stopCh  chan struct{}
	doneCh  chan struct{}
}

// NewNode creates a node attached to the network. Call Start to run it.
func NewNode(id string, peers []string, net *Network, cfg Config) *Node {
	cfg = cfg.withDefaults()
	seed := cfg.Seed
	if seed == 0 {
		seed = int64(len(id)) * 7919
		for _, c := range id {
			seed = seed*31 + int64(c)
		}
	}
	n := &Node{
		id:         id,
		peers:      append([]string(nil), peers...),
		net:        net,
		cfg:        cfg,
		rng:        rand.New(rand.NewSource(seed)),
		role:       Follower,
		log:        []Entry{{}}, // sentinel
		nextIndex:  make(map[string]uint64),
		matchIndex: make(map[string]uint64),
		applyCh:    make(chan Committed, 1024),
		inbox:      make(chan message, 1024),
		stopCh:     make(chan struct{}),
		doneCh:     make(chan struct{}),
	}
	net.register(id, n.inbox)
	return n
}

// ID returns the node's identity.
func (n *Node) ID() string { return n.id }

// Apply returns the channel of committed entries, delivered in log order.
func (n *Node) Apply() <-chan Committed { return n.applyCh }

// Start launches the node's event loop.
func (n *Node) Start() {
	n.mu.Lock()
	n.resetElectionTimerLocked()
	n.mu.Unlock()
	go n.run()
}

// Stop shuts the node down and waits for its loop to exit.
func (n *Node) Stop() {
	select {
	case <-n.stopCh:
	default:
		close(n.stopCh)
	}
	<-n.doneCh
}

// Role returns the node's current role.
func (n *Node) Role() Role {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role
}

// Term returns the node's current term.
func (n *Node) Term() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.currentTerm
}

// CommitIndex returns the highest committed log index.
func (n *Node) CommitIndex() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.commitIndex
}

// TermAt returns the term of the log entry at index in O(1), or 0 when
// the log holds no such entry (real terms start at 1; index 0 is the
// term-0 sentinel).
func (n *Node) TermAt(index uint64) uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	if index >= uint64(len(n.log)) {
		return 0
	}
	return n.log[index].Term
}

// AwaitCommit blocks until this node's commit index reaches index and
// reports true, or reports false once the node is no longer leader, has
// stopped, or d has elapsed. It is woken by the commit or step-down
// itself, not by polling. A committed entry is never rewritten, so the
// caller can compare TermAt(index) afterwards to learn whether its own
// proposal is what committed there.
func (n *Node) AwaitCommit(index uint64, d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	for {
		n.mu.Lock()
		if n.commitIndex >= index {
			n.mu.Unlock()
			return true
		}
		if n.role != Leader {
			n.mu.Unlock()
			return false
		}
		if n.changed == nil {
			n.changed = make(chan struct{})
		}
		changed := n.changed
		n.mu.Unlock()
		select {
		case <-changed:
		case <-timer.C:
			return false
		case <-n.stopCh:
			return false
		}
	}
}

// notifyLocked wakes every AwaitCommit waiter to re-check the node.
func (n *Node) notifyLocked() {
	if n.changed != nil {
		close(n.changed)
		n.changed = nil
	}
}

// LogEntries returns a copy of the log (excluding the sentinel).
func (n *Node) LogEntries() []Entry {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]Entry, len(n.log)-1)
	copy(out, n.log[1:])
	return out
}

// Propose appends data to the replicated log if this node is the leader.
// It returns the assigned index and term. Commitment is signaled later
// via Apply.
func (n *Node) Propose(data []byte) (index, term uint64, err error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	select {
	case <-n.stopCh:
		return 0, 0, ErrStopped
	default:
	}
	if n.role != Leader {
		return 0, 0, ErrNotLeader
	}
	e := Entry{Term: n.currentTerm, Index: uint64(len(n.log)), Data: append([]byte(nil), data...)}
	n.log = append(n.log, e)
	n.matchIndex[n.id] = e.Index
	n.broadcastAppendLocked()
	return e.Index, e.Term, nil
}

func (n *Node) run() {
	// The run goroutine is the only sender on applyCh, so closing it here
	// is safe and lets downstream consumers (blockchain peers) terminate.
	defer close(n.doneCh)
	defer close(n.applyCh)
	ticker := time.NewTicker(n.cfg.HeartbeatInterval / 3)
	defer ticker.Stop()
	for {
		select {
		case <-n.stopCh:
			return
		case m := <-n.inbox:
			n.handle(m)
		case <-ticker.C:
			n.tick()
		}
	}
}

func (n *Node) tick() {
	n.mu.Lock()
	defer n.mu.Unlock()
	now := time.Now()
	switch n.role {
	case Leader:
		n.broadcastAppendLocked()
	case Follower, Candidate:
		if now.After(n.electionAt) {
			n.startElectionLocked()
		}
	}
}

func (n *Node) resetElectionTimerLocked() {
	span := n.cfg.ElectionTimeoutMax - n.cfg.ElectionTimeoutMin
	d := n.cfg.ElectionTimeoutMin + time.Duration(n.rng.Int63n(int64(span)+1))
	n.electionAt = time.Now().Add(d)
}

func (n *Node) startElectionLocked() {
	n.role = Candidate
	n.currentTerm++
	n.votedFor = n.id
	n.votes = map[string]bool{n.id: true}
	n.resetElectionTimerLocked()
	last := n.log[len(n.log)-1]
	for _, p := range n.peers {
		if p == n.id {
			continue
		}
		n.net.send(n.id, p, message{
			kind: msgRequestVote, from: n.id, term: n.currentTerm,
			candidateID: n.id, lastLogIndex: last.Index, lastLogTerm: last.Term,
		})
	}
	// Single-node cluster wins immediately.
	if n.tallyLocked() {
		n.becomeLeaderLocked()
	}
}

func (n *Node) tallyLocked() bool {
	return len(n.votes) > len(n.peers)/2
}

func (n *Node) becomeLeaderLocked() {
	n.role = Leader
	for _, p := range n.peers {
		n.nextIndex[p] = uint64(len(n.log))
		n.matchIndex[p] = 0
	}
	n.matchIndex[n.id] = uint64(len(n.log)) - 1
	n.broadcastAppendLocked()
}

func (n *Node) stepDownLocked(term uint64) {
	n.currentTerm = term
	n.role = Follower
	n.votedFor = ""
	n.resetElectionTimerLocked()
	n.notifyLocked()
}

func (n *Node) handle(m message) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if m.term > n.currentTerm {
		n.stepDownLocked(m.term)
	}
	switch m.kind {
	case msgRequestVote:
		n.handleRequestVoteLocked(m)
	case msgVoteReply:
		n.handleVoteReplyLocked(m)
	case msgAppendEntries:
		n.handleAppendLocked(m)
	case msgAppendReply:
		n.handleAppendReplyLocked(m)
	}
}

func (n *Node) handleRequestVoteLocked(m message) {
	grant := false
	if m.term >= n.currentTerm && (n.votedFor == "" || n.votedFor == m.candidateID) {
		last := n.log[len(n.log)-1]
		upToDate := m.lastLogTerm > last.Term ||
			(m.lastLogTerm == last.Term && m.lastLogIndex >= last.Index)
		if upToDate {
			grant = true
			n.votedFor = m.candidateID
			n.resetElectionTimerLocked()
		}
	}
	n.net.send(n.id, m.from, message{
		kind: msgVoteReply, from: n.id, term: n.currentTerm, voteGranted: grant,
	})
}

func (n *Node) handleVoteReplyLocked(m message) {
	if n.role != Candidate || m.term != n.currentTerm || !m.voteGranted {
		return
	}
	n.votes[m.from] = true
	if n.tallyLocked() {
		n.becomeLeaderLocked()
	}
}

func (n *Node) handleAppendLocked(m message) {
	reply := message{kind: msgAppendReply, from: n.id, term: n.currentTerm}
	if m.term < n.currentTerm {
		n.net.send(n.id, m.from, reply)
		return
	}
	// Valid leader for this term.
	n.role = Follower
	n.resetElectionTimerLocked()
	// Log consistency check.
	if m.prevLogIndex >= uint64(len(n.log)) || n.log[m.prevLogIndex].Term != m.prevLogTerm {
		n.net.send(n.id, m.from, reply) // success=false
		return
	}
	// Append, truncating conflicts.
	for i, e := range m.entries {
		idx := m.prevLogIndex + uint64(i) + 1
		if idx < uint64(len(n.log)) {
			if n.log[idx].Term != e.Term {
				n.log = n.log[:idx]
				n.log = append(n.log, m.entries[i:]...)
				break
			}
			continue
		}
		n.log = append(n.log, m.entries[i:]...)
		break
	}
	lastNew := m.prevLogIndex + uint64(len(m.entries))
	if m.leaderCommit > n.commitIndex {
		n.commitIndex = min64(m.leaderCommit, lastNew)
		n.applyCommittedLocked()
	}
	reply.success = true
	reply.matchIndex = lastNew
	n.net.send(n.id, m.from, reply)
}

func (n *Node) handleAppendReplyLocked(m message) {
	if n.role != Leader || m.term != n.currentTerm {
		return
	}
	if m.success {
		if m.matchIndex > n.matchIndex[m.from] {
			n.matchIndex[m.from] = m.matchIndex
		}
		n.nextIndex[m.from] = m.matchIndex + 1
		n.advanceCommitLocked()
	} else {
		if n.nextIndex[m.from] > 1 {
			n.nextIndex[m.from]--
		}
	}
}

func (n *Node) advanceCommitLocked() {
	// Median match index across the cluster is committed, provided the
	// entry is from the current term (Raft safety rule §5.4.2).
	matches := make([]uint64, 0, len(n.peers))
	for _, p := range n.peers {
		matches = append(matches, n.matchIndex[p])
	}
	sort.Slice(matches, func(i, j int) bool { return matches[i] < matches[j] })
	candidate := matches[(len(matches)-1)/2]
	if candidate > n.commitIndex && candidate < uint64(len(n.log)) &&
		n.log[candidate].Term == n.currentTerm {
		n.commitIndex = candidate
		n.applyCommittedLocked()
		// Tell followers now: they apply on leaderCommit, and waiting for
		// the next heartbeat tick would put that interval on every commit
		// that needs all replicas applied.
		n.broadcastAppendLocked()
	}
}

func (n *Node) applyCommittedLocked() {
	n.notifyLocked()
	for n.lastApplied < n.commitIndex {
		n.lastApplied++
		e := n.log[n.lastApplied]
		select {
		case n.applyCh <- Committed{Entry: e}:
		case <-n.stopCh:
			return
		}
	}
}

func (n *Node) broadcastAppendLocked() {
	for _, p := range n.peers {
		if p == n.id {
			continue
		}
		next := n.nextIndex[p]
		if next == 0 {
			next = 1
		}
		prev := n.log[next-1]
		var entries []Entry
		if uint64(len(n.log)) > next {
			entries = append(entries, n.log[next:]...)
		}
		n.net.send(n.id, p, message{
			kind: msgAppendEntries, from: n.id, term: n.currentTerm,
			prevLogIndex: prev.Index, prevLogTerm: prev.Term,
			entries: entries, leaderCommit: n.commitIndex,
		})
	}
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
