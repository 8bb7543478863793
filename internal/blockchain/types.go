// Package blockchain implements the permissioned ledger networks of §IV:
// provenance, malware, privacy, and identity blockchains "such as
// Hyperledger". The transaction lifecycle follows the Fabric model the
// paper assumes — endorse, order, validate, commit — with ordering
// provided by the Raft cluster in internal/consensus.
//
// PHI never goes on-chain: per §IV-B1 "it is essential not to store the
// PHI data on the full replicated de-centralized ledger". Transactions
// carry only a handle (reference) to the encrypted off-chain record, a
// salted hash of the data, and event metadata.
package blockchain

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"sort"
	"time"
)

// EventType enumerates the ledger events §IV-B1 lists: "data receipt,
// data retrieval, data anonymization and such other events".
type EventType string

// Ledger event types.
const (
	EventDataReceipt      EventType = "data-receipt"
	EventDataRetrieval    EventType = "data-retrieval"
	EventAnonymization    EventType = "anonymization"
	EventConsentGranted   EventType = "consent-granted"
	EventConsentRevoked   EventType = "consent-revoked"
	EventMalwareReport    EventType = "malware-report"
	EventPrivacyLevel     EventType = "privacy-level"
	EventIdentityRegister EventType = "identity-register"
	EventIdentityRevoke   EventType = "identity-revoke"
	EventWorkloadAttest   EventType = "workload-attest"
	EventSecureDeletion   EventType = "secure-deletion"
	EventExport           EventType = "export"
)

// Transaction is one ledger record. Handle points at the off-chain
// encrypted record; DataHash is a salted hash binding the record's
// content without revealing it. Endorsements holds per-transaction
// signatures over Digest; only chains written before group endorsement
// became the one format carry them (they still replay and verify), and
// no new block sets it.
type Transaction struct {
	ID           string            `json:"id"`
	Type         EventType         `json:"type"`
	Creator      string            `json:"creator"`
	Handle       string            `json:"handle,omitempty"`
	DataHash     []byte            `json:"data_hash,omitempty"`
	Meta         map[string]string `json:"meta,omitempty"`
	Timestamp    time.Time         `json:"timestamp"`
	Endorsements []Endorsement     `json:"endorsements,omitempty"`
}

// Endorsement is a peer's signature over a GroupDigest (or, on legacy
// chains, over one transaction's Digest).
type Endorsement struct {
	PeerID    string `json:"peer_id"`
	Signature []byte `json:"signature"`
}

// Digest returns the canonical hash endorsers sign: every field except
// the endorsements themselves, deterministically serialized.
func (tx *Transaction) Digest() []byte {
	h := sha256.New()
	tx.writeDigest(h)
	return h.Sum(nil)
}

// writeDigest streams the canonical digest serialization into h. The
// byte layout is load-bearing: stored chains hash-verify against it on
// replay, so it must never change. Batch paths (GroupDigest, block
// hashing) call this with a reused hasher instead of allocating a fresh
// sha256 state and 32-byte sum per transaction.
func (tx *Transaction) writeDigest(h hash.Hash) {
	var lenBuf [8]byte
	write := func(b []byte) {
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(b)))
		h.Write(lenBuf[:])
		h.Write(b)
	}
	write([]byte(tx.ID))
	write([]byte(tx.Type))
	write([]byte(tx.Creator))
	write([]byte(tx.Handle))
	write(tx.DataHash)
	switch len(tx.Meta) {
	case 0:
	case 1:
		// A single entry needs no sort — skip the keys-slice allocation
		// (most ledger transactions carry zero or one metadata pair).
		for k, v := range tx.Meta {
			write([]byte(k))
			write([]byte(v))
		}
	default:
		keys := make([]string, 0, len(tx.Meta))
		for k := range tx.Meta {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			write([]byte(k))
			write([]byte(tx.Meta[k]))
		}
	}
	var ts [8]byte
	binary.BigEndian.PutUint64(ts[:], uint64(tx.Timestamp.UnixNano()))
	write(ts[:])
}

// writeTxDigests writes each transaction's digest into h, reusing one
// inner hasher and one stack sum buffer across the whole batch.
func writeTxDigests(h hash.Hash, txs []Transaction) {
	inner := sha256.New()
	var sum [sha256.Size]byte
	for i := range txs {
		inner.Reset()
		txs[i].writeDigest(inner)
		h.Write(inner.Sum(sum[:0]))
	}
}

// Block is a batch of validated transactions chained by hash.
type Block struct {
	Number   uint64        `json:"number"`
	PrevHash []byte        `json:"prev_hash"`
	Txs      []Transaction `json:"txs"`
	Hash     []byte        `json:"hash"`
}

// computeHash derives the block hash from number, previous hash, and
// every transaction digest.
func (b *Block) computeHash() []byte {
	h := sha256.New()
	var num [8]byte
	binary.BigEndian.PutUint64(num[:], b.Number)
	h.Write(num[:])
	h.Write(b.PrevHash)
	writeTxDigests(h, b.Txs)
	return h.Sum(nil)
}

// batch is the unit submitted to the ordering service: the transactions
// of one entry and the group endorsements (signatures over their
// GroupDigest) that admit it. The envelope lives only in the in-memory
// ordering log, so it is not a durable format.
type batch struct {
	Txs   []Transaction `json:"txs"`
	Group []Endorsement `json:"group"`
}

// GroupDigest is the canonical hash peers sign when endorsing an
// ordering entry — a lone transaction is a group of one: a
// domain-separated hash over every transaction digest in order. Binding
// the order means a reordered or substituted batch fails verification.
func GroupDigest(txs []Transaction) []byte {
	h := sha256.New()
	h.Write([]byte("blockchain:group-endorsement:v1"))
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], uint64(len(txs)))
	h.Write(n[:])
	writeTxDigests(h, txs)
	return h.Sum(nil)
}

func encodeEnvelope(txs []Transaction, group []Endorsement) ([]byte, error) {
	data, err := json.Marshal(batch{Txs: txs, Group: group})
	if err != nil {
		return nil, fmt.Errorf("blockchain: encoding batch: %w", err)
	}
	return data, nil
}

func decodeBatch(data []byte) ([]Transaction, []Endorsement, error) {
	var b batch
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, nil, fmt.Errorf("blockchain: decoding batch: %w", err)
	}
	return b.Txs, b.Group, nil
}

// Errors returned by this package.
var (
	ErrNotEndorsed    = errors.New("blockchain: endorsement policy not satisfied")
	ErrUnknownPeer    = errors.New("blockchain: unknown peer")
	ErrBadEndorsement = errors.New("blockchain: invalid endorsement signature")
	ErrChainBroken    = errors.New("blockchain: hash chain broken")
	ErrTxRejected     = errors.New("blockchain: transaction rejected by endorser")
)
