package store

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"
)

// Disaster recovery (§II-B lists a "high availability and disaster
// recovery service" among the platform services). The Data Lake's state
// is snapshot-able and restorable: records stay envelope-encrypted in
// the snapshot (a stolen snapshot is ciphertext), and the per-record
// data keys remain in the KMS — the paper's single-tenant, separately
// hardened system — so restoring requires both the snapshot AND the
// surviving KMS. Tombstones for securely-deleted records are preserved
// so a restore cannot resurrect forgotten patients.

// A snapshot serializes lake records in their Sealed form — the same
// shape replication and rebalancing move between shards.
type snapshot struct {
	TakenAt time.Time `json:"taken_at"`
	Records []Sealed  `json:"records"`
}

// Snapshot serializes the lake's full state (encrypted records +
// metadata + tombstones). No plaintext and no key material leave the
// lake.
func (d *DataLake) Snapshot() ([]byte, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	snap := snapshot{TakenAt: time.Now().UTC()}
	ids := make([]string, 0, len(d.records))
	for id := range d.records {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		snap.Records = append(snap.Records, d.records[id].sealed())
	}
	data, err := json.Marshal(snap)
	if err != nil {
		return nil, fmt.Errorf("store: snapshot: %w", err)
	}
	return data, nil
}

// Restore rebuilds a lake from a snapshot, attached to the surviving
// KMS. Existing records in the receiving lake are replaced wholesale
// (restore targets a fresh replica).
func (d *DataLake) Restore(data []byte) error {
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("store: restoring snapshot: %w", err)
	}
	records := make(map[string]*record, len(snap.Records))
	for _, sr := range snap.Records {
		records[sr.RefID] = &record{
			refID: sr.RefID, keyID: sr.KeyID, ciphertext: sr.Ciphertext,
			meta: sr.Meta, deleted: sr.Deleted,
		}
	}
	d.mu.Lock()
	d.records = records
	d.mu.Unlock()
	return nil
}
