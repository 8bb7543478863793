package blockchain

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Ledger is an append-only chain of blocks plus the world state derived
// from them. Each peer holds its own instance, built independently from
// the ordered transaction stream, so divergence is detectable by
// comparing chain heads.
type Ledger struct {
	mu     sync.RWMutex
	wal    BlockWAL          // nil = in-memory only
	blocks []Block           // retained blocks, numbered [base, base+len)
	state  map[string]string // world state: handle -> latest event summary
	byID   map[string]bool   // committed tx ids, for at-least-once dedup
	byType map[EventType][]int
	// appended is closed (and cleared) each time a block's transactions
	// apply; WaitCommitted waiters block on it. Nil while nobody waits.
	appended chan struct{}

	// base/baseHash are non-zero only on a ledger restored from a
	// world-state snapshot (RestoreSnapshot): blocks [0, base) were
	// folded into the snapshot and are not retained; baseHash is the
	// hash of block base-1, the linkage anchor for the first retained
	// block. snapEvery > 0 offers a snapshot to the WAL every K blocks.
	base      uint64
	baseHash  []byte
	snapEvery uint64
}

// BlockWAL persists committed blocks write-ahead: AppendBlock hands
// every new block to the WAL before the world state applies it, and a
// WAL error fails the commit (the submitter sees a transient failure
// and retries). Because each peer builds the same chain from the same
// ordered stream, one WAL is safely shared across all peers of a
// network — the implementation deduplicates by block number + hash and
// turns a same-number/different-hash append into a divergence error.
// internal/durable provides the file-backed implementation.
type BlockWAL interface {
	Append(b Block) error
}

// NewLedger creates an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{
		state:  make(map[string]string),
		byID:   make(map[string]bool),
		byType: make(map[EventType][]int),
	}
}

// AppendBlock validates chain linkage and appends. Transactions already
// committed (by ID) are dropped silently: the ordering layer is
// at-least-once, the ledger is exactly-once.
func (l *Ledger) AppendBlock(txs []Transaction) (*Block, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	fresh := make([]Transaction, 0, len(txs))
	for _, tx := range txs {
		if !l.byID[tx.ID] {
			fresh = append(fresh, tx)
		}
	}
	if len(fresh) == 0 {
		return nil, nil
	}
	prev := l.baseHash
	if n := len(l.blocks); n > 0 {
		prev = l.blocks[n-1].Hash
	}
	b := Block{Number: l.base + uint64(len(l.blocks)), PrevHash: prev, Txs: fresh}
	b.Hash = b.computeHash()
	if l.wal != nil {
		if err := l.wal.Append(b); err != nil {
			return nil, fmt.Errorf("blockchain: wal append: %w", err)
		}
	}
	l.blocks = append(l.blocks, b)
	l.applyTxsLocked(b)
	l.maybeSnapshotLocked()
	return &l.blocks[len(l.blocks)-1], nil
}

// applyTxsLocked runs the world-state transition for one block's
// transactions — the single code path AppendBlock, Restore and
// RestoreSnapshot all share, so live commit and both replay flavors
// are provably the same transition.
func (l *Ledger) applyTxsLocked(b Block) {
	for _, tx := range b.Txs {
		l.byID[tx.ID] = true
		l.byType[tx.Type] = append(l.byType[tx.Type], int(b.Number))
		if tx.Handle != "" {
			l.state[tx.Handle] = fmt.Sprintf("%s@block%d", tx.Type, b.Number)
		}
	}
	if l.appended != nil {
		close(l.appended)
		l.appended = nil
	}
}

// SetWAL attaches a write-ahead log for committed blocks (nil
// detaches). Call before the ledger takes traffic; typically right
// after Restore replayed the same WAL's history.
func (l *Ledger) SetWAL(w BlockWAL) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.wal = w
}

// Restore rebuilds the ledger from a replayed chain — the restart path.
// It refuses on a non-empty ledger, verifies numbering, linkage and
// every block hash before touching any state, then applies the blocks
// through exactly the same state transition AppendBlock uses, so a
// restored ledger is indistinguishable from one that committed the
// blocks live.
func (l *Ledger) Restore(blocks []Block) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.blocks) != 0 || l.base != 0 {
		return fmt.Errorf("blockchain: restore into non-empty ledger (height %d)", l.base+uint64(len(l.blocks)))
	}
	var prev []byte
	for i := range blocks {
		b := &blocks[i]
		if b.Number != uint64(i) {
			return fmt.Errorf("%w: block %d numbered %d", ErrChainBroken, i, b.Number)
		}
		if !bytes.Equal(b.PrevHash, prev) {
			return fmt.Errorf("%w: block %d prev-hash mismatch", ErrChainBroken, i)
		}
		if !bytes.Equal(b.Hash, b.computeHash()) {
			return fmt.Errorf("%w: block %d hash mismatch", ErrChainBroken, i)
		}
		prev = b.Hash
	}
	for _, b := range blocks {
		l.blocks = append(l.blocks, b)
		l.applyTxsLocked(b)
	}
	return nil
}

// StateHash returns a deterministic digest of the world state — sorted
// handle/value pairs plus the chain tip — so two ledgers (or one
// ledger before a crash and after replay) can be compared with a
// single value. Replaying the same WAL twice yields the same hash.
func (l *Ledger) StateHash() string {
	l.mu.RLock()
	defer l.mu.RUnlock()
	handles := make([]string, 0, len(l.state))
	for h := range l.state {
		handles = append(handles, h)
	}
	sort.Strings(handles)
	h := sha256.New()
	write := func(b []byte) {
		var lenBuf [8]byte
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(b)))
		h.Write(lenBuf[:])
		h.Write(b)
	}
	for _, handle := range handles {
		write([]byte(handle))
		write([]byte(l.state[handle]))
	}
	if n := len(l.blocks); n > 0 {
		write(l.blocks[n-1].Hash)
	} else if len(l.baseHash) > 0 {
		// Snapshot-restored with no tail yet: the snapshot's tip is the
		// chain tip, so the hash matches a full replay to the same height.
		write(l.baseHash)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Height returns the chain height — the number of blocks committed,
// including any folded into a restore snapshot.
func (l *Ledger) Height() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return int(l.base) + len(l.blocks)
}

// TxCount returns the number of committed transactions.
func (l *Ledger) TxCount() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.byID)
}

// Block returns a copy of block n. Blocks folded into a restore
// snapshot (n < Base) are no longer retained and return an error.
func (l *Ledger) Block(n uint64) (Block, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if n < l.base {
		return Block{}, fmt.Errorf("blockchain: block %d folded into snapshot (base %d)", n, l.base)
	}
	if n-l.base >= uint64(len(l.blocks)) {
		return Block{}, fmt.Errorf("blockchain: no block %d (height %d)", n, l.base+uint64(len(l.blocks)))
	}
	return l.blocks[n-l.base], nil
}

// Head returns the hash of the latest block, or nil if empty.
func (l *Ledger) Head() []byte {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if len(l.blocks) == 0 {
		if len(l.baseHash) > 0 {
			return append([]byte(nil), l.baseHash...)
		}
		return nil
	}
	return append([]byte(nil), l.blocks[len(l.blocks)-1].Hash...)
}

// VerifyChain re-hashes every block and checks linkage, returning
// ErrChainBroken on any inconsistency. Auditors run this before trusting
// query results.
func (l *Ledger) VerifyChain() error {
	l.mu.RLock()
	defer l.mu.RUnlock()
	prev := l.baseHash
	for i := range l.blocks {
		b := &l.blocks[i]
		if !bytes.Equal(b.PrevHash, prev) {
			return fmt.Errorf("%w: block %d prev-hash mismatch", ErrChainBroken, i)
		}
		if !bytes.Equal(b.Hash, b.computeHash()) {
			return fmt.Errorf("%w: block %d hash mismatch", ErrChainBroken, i)
		}
		prev = b.Hash
	}
	return nil
}

// HandleState returns the latest event recorded for a handle.
func (l *Ledger) HandleState(handle string) (string, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	s, ok := l.state[handle]
	return s, ok
}

// Committed reports whether a transaction ID is on the chain.
func (l *Ledger) Committed(txID string) bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.byID[txID]
}

// WaitCommitted blocks until txID is on the chain and reports true, or
// reports false once deadline has passed without it. The wait is woken
// by the block append itself, so commit-wait costs no polling interval.
func (l *Ledger) WaitCommitted(txID string, deadline time.Time) bool {
	if l.Committed(txID) {
		return true
	}
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	for {
		l.mu.Lock()
		if l.byID[txID] {
			l.mu.Unlock()
			return true
		}
		if l.appended == nil {
			l.appended = make(chan struct{})
		}
		appended := l.appended
		l.mu.Unlock()
		select {
		case <-appended:
		case <-timer.C:
			return l.Committed(txID)
		}
	}
}

// AuditQuery is the "auditor view" §IV-E describes: Hyperledger "allows
// an auditor to get access to the ledgers and search for use and
// processing of data". Zero-valued fields match everything.
type AuditQuery struct {
	Type    EventType
	Creator string
	Handle  string
	Since   time.Time
	Until   time.Time
}

// Audit returns every committed transaction matching the query, in chain
// order. On a snapshot-restored ledger only retained blocks (>= Base)
// are scanned: transactions folded into the snapshot still count for
// dedup and world state, but their full bodies live in the snapshotted
// prefix of the WAL, not in memory.
func (l *Ledger) Audit(q AuditQuery) []Transaction {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var out []Transaction
	for i := range l.blocks {
		for _, tx := range l.blocks[i].Txs {
			if q.Type != "" && tx.Type != q.Type {
				continue
			}
			if q.Creator != "" && tx.Creator != q.Creator {
				continue
			}
			if q.Handle != "" && tx.Handle != q.Handle {
				continue
			}
			if !q.Since.IsZero() && tx.Timestamp.Before(q.Since) {
				continue
			}
			if !q.Until.IsZero() && tx.Timestamp.After(q.Until) {
				continue
			}
			out = append(out, tx)
		}
	}
	return out
}

// ProvenanceTrail returns the full event history of one handle — the
// data-provenance capability GDPR/HIPAA audits require (§IV).
func (l *Ledger) ProvenanceTrail(handle string) []Transaction {
	return l.Audit(AuditQuery{Handle: handle})
}
