package multichain

import (
	"fmt"
	"sort"

	"healthcloud/internal/blockchain"
)

// Entry locates one committed transaction in the multi-channel fabric.
// Ordering rules:
//
//   - Per record, order is total and verifiable: every event of one
//     record routes to one channel (RouteKey), so the pair
//     (Height, Index) on that channel — block height, intra-block
//     index — totally orders the record's history, anchored by the
//     channel's hash chain.
//   - Across records (and therefore channels) there is no single
//     hash-anchored order; merged views sort by (Timestamp, Channel,
//     Height, Index), which is deterministic and stable under replay
//     because every component is committed on-chain.
type Entry struct {
	Channel string
	Height  uint64 // block number within the channel
	Index   int    // transaction index within the block
	Tx      blockchain.Transaction
}

// less is the cross-channel merge order (see Entry).
func (e Entry) less(o Entry) bool {
	if !e.Tx.Timestamp.Equal(o.Tx.Timestamp) {
		return e.Tx.Timestamp.Before(o.Tx.Timestamp)
	}
	if e.Channel != o.Channel {
		return e.Channel < o.Channel
	}
	if e.Height != o.Height {
		return e.Height < o.Height
	}
	return e.Index < o.Index
}

// Auditor is the cross-channel auditor view (§IV-E's "auditor gets
// access to the ledgers and searches for use and processing of data",
// now plural). Every query verifies the chains it reads before
// trusting them.
type Auditor struct{ m *Ledger }

// Auditor returns the fabric's auditor view.
func (m *Ledger) Auditor() *Auditor { return &Auditor{m: m} }

// TotalOrder reconstructs one record's verifiable total order: it
// verifies the owning channel's chain, then walks its retained blocks
// collecting the record's transactions in (Height, Index) order. The
// result is identical no matter how commits interleaved across
// channels, and stable under WAL replay — both properties are pinned
// by tests.
func (a *Auditor) TotalOrder(handle string) ([]Entry, error) {
	name := a.m.Route(handle)
	ch := a.m.byName[name]
	led := ch.ledger()
	if err := led.VerifyChain(); err != nil {
		return nil, fmt.Errorf("multichain: auditor: channel %s: %w", name, err)
	}
	return collectEntries(ch, func(tx *blockchain.Transaction) bool {
		return tx.Handle == handle
	})
}

// Entries returns every committed transaction matching the query,
// merged across all channels in the deterministic cross-channel order
// (see Entry). Chains are verified before the merge.
func (a *Auditor) Entries(q blockchain.AuditQuery) ([]Entry, error) {
	var out []Entry
	for _, ch := range a.m.chans {
		led := ch.ledger()
		if err := led.VerifyChain(); err != nil {
			return nil, fmt.Errorf("multichain: auditor: channel %s: %w", ch.Name, err)
		}
		entries, err := collectEntries(ch, func(tx *blockchain.Transaction) bool {
			return matchesQuery(tx, q)
		})
		if err != nil {
			return nil, err
		}
		out = append(out, entries...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].less(out[j]) })
	return out, nil
}

// Audit flattens Entries into bare transactions — the ssi.LedgerQuerier
// surface, so identity status queries work unchanged over a partitioned
// fabric. A chain-verification failure yields no results: an auditor
// must never act on a tampered view.
func (m *Ledger) Audit(q blockchain.AuditQuery) []blockchain.Transaction {
	entries, err := m.Auditor().Entries(q)
	if err != nil {
		return nil
	}
	out := make([]blockchain.Transaction, len(entries))
	for i, e := range entries {
		out[i] = e.Tx
	}
	return out
}

// ProvenanceTrail is the full, totally ordered event history of one
// record, flattened (GDPR/HIPAA audit surface).
func (m *Ledger) ProvenanceTrail(handle string) []blockchain.Transaction {
	entries, err := m.Auditor().TotalOrder(handle)
	if err != nil {
		return nil
	}
	out := make([]blockchain.Transaction, len(entries))
	for i, e := range entries {
		out[i] = e.Tx
	}
	return out
}

// collectEntries walks one channel's retained blocks (Base and up —
// transactions folded into a restore snapshot live in the WAL prefix,
// not in memory) collecting matching transactions in chain order.
func collectEntries(ch *Channel, match func(*blockchain.Transaction) bool) ([]Entry, error) {
	led := ch.ledger()
	var out []Entry
	for n := led.Base(); n < uint64(led.Height()); n++ {
		b, err := led.Block(n)
		if err != nil {
			return nil, fmt.Errorf("multichain: auditor: channel %s block %d: %w", ch.Name, n, err)
		}
		for i := range b.Txs {
			if match(&b.Txs[i]) {
				out = append(out, Entry{
					Channel: ch.Name, Height: b.Number, Index: i, Tx: b.Txs[i],
				})
			}
		}
	}
	return out, nil
}

// matchesQuery mirrors blockchain.Ledger.Audit's filter semantics.
func matchesQuery(tx *blockchain.Transaction, q blockchain.AuditQuery) bool {
	if q.Type != "" && tx.Type != q.Type {
		return false
	}
	if q.Creator != "" && tx.Creator != q.Creator {
		return false
	}
	if q.Handle != "" && tx.Handle != q.Handle {
		return false
	}
	if !q.Since.IsZero() && tx.Timestamp.Before(q.Since) {
		return false
	}
	if !q.Until.IsZero() && tx.Timestamp.After(q.Until) {
		return false
	}
	return true
}
