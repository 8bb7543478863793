package store

import "fmt"

// The lake's durability hook. When a Journal is attached (SetJournal),
// every mutation is framed to it write-ahead — staged under the lake's
// own mutex so journal order is exactly in-memory apply order — and
// the operation is acknowledged only after the journal reports the
// frame durable. internal/durable provides the file-backed
// implementation; the interface lives here so store stays free of any
// dependency on it, and a nil journal keeps today's in-memory behavior
// byte-identical.

// Journal operations.
const (
	// OpPut is a live record install (Put, PutSealed, replication,
	// read-repair, hint delivery).
	OpPut = "put"
	// OpTombstone is a secure deletion: key shredded, ciphertext
	// zeroed, tombstone retained for audit.
	OpTombstone = "tombstone"
	// OpEvict removes a record outright (rebalance cleanup) — not a
	// deletion; the object lives on its new shards.
	OpEvict = "evict"
)

// JournalRecord is one journaled lake mutation. A key grant is not one:
// it is an in-memory KMS capability, and the durable record of an export
// is its ledger event and audit entry.
type JournalRecord struct {
	Op     string `json:"op"`
	Sealed Sealed `json:"sealed"`
}

// Journal persists lake mutations write-ahead. Append stages the
// record (cheap, called under the lake's mutex) and returns a wait
// function that blocks until the record is durable; the lake calls it
// after releasing its mutex, so fsync batching across concurrent
// writers is preserved. An Append error means nothing was staged and
// the mutation must not be applied.
type Journal interface {
	Append(rec JournalRecord) (wait func() error, err error)
}

// SetJournal attaches a write-ahead journal (nil detaches). Call
// before the lake is shared across goroutines.
func (d *DataLake) SetJournal(j Journal) { d.journal = j }

// stageJournal stages one record write-ahead. Must be called with d.mu
// held; the returned wait (possibly nil) is invoked after unlock.
func (d *DataLake) stageJournal(rec JournalRecord) (func() error, error) {
	if d.journal == nil {
		return nil, nil
	}
	return d.journal.Append(rec)
}

// ApplyJournal applies one replayed record to the in-memory state,
// bypassing fault points, the service-time model and the journal
// itself — the replay path internal/durable drives at open. Tombstone
// precedence matches PutSealed: a live record never overwrites a
// tombstone. The lake takes ownership of rec.Sealed.Ciphertext (replay
// hands over the slice it just decoded); the caller must not reuse it.
func (d *DataLake) ApplyJournal(rec JournalRecord) error {
	switch rec.Op {
	case OpPut, OpTombstone:
		s := rec.Sealed
		d.mu.Lock()
		if existing, ok := d.records[s.RefID]; ok && existing.deleted && !s.Deleted {
			d.mu.Unlock()
			return nil
		}
		d.records[s.RefID] = &record{
			refID: s.RefID, keyID: s.KeyID, ciphertext: s.Ciphertext,
			meta: s.Meta, deleted: s.Deleted,
		}
		d.mu.Unlock()
	case OpEvict:
		d.mu.Lock()
		delete(d.records, rec.Sealed.RefID)
		d.mu.Unlock()
	case "grant":
		// Only older logs hold grant frames; a grant lives in the KMS,
		// which every open builds fresh, so there is nothing to re-apply.
	default:
		return fmt.Errorf("store: unknown journal op %q", rec.Op)
	}
	return nil
}

// tombstoneRecord renders a record's post-shred state for journaling.
func tombstoneRecord(rec *record) JournalRecord {
	return JournalRecord{Op: OpTombstone, Sealed: Sealed{
		RefID: rec.refID, KeyID: rec.keyID, Meta: rec.meta, Deleted: true,
	}}
}
