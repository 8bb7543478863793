package ingest

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"healthcloud/internal/anonymize"
	"healthcloud/internal/audit"
	"healthcloud/internal/blockchain"
	"healthcloud/internal/consent"
	"healthcloud/internal/fhir"
	"healthcloud/internal/store"
)

// ExportedRecord is one row of an export.
type ExportedRecord struct {
	RefID    string `json:"ref_id"`
	Identity string `json:"identity,omitempty"` // full export only
	Bundle   []byte `json:"bundle"`
}

// ExportAnonymized returns the de-identified records of a study group
// after the anonymization verification service confirms the cohort's
// k-anonymity (§II-B "Anonymized export, that anonymizes the data to
// protect privacy"; §IV-C). The export is recorded on the provenance
// ledger.
func (p *Pipeline) ExportAnonymized(group, principal string) ([]ExportedRecord, error) {
	out, err := p.exportRecords(group, "fhir+json;deidentified", principal, nil)
	if err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%w: no de-identified records in group %q", ErrExportDenied, group)
	}
	table := &anonymize.Table{QuasiIDs: []string{"gender", "state", "zip"}}
	for _, rec := range out {
		table.Rows = append(table.Rows, quasiRow(rec.Bundle))
	}
	if _, err := p.verifier.Verify(table); err != nil {
		p.log.Record(audit.Event{Level: audit.LevelWarn, Service: "export",
			Action: "anonymized-export-blocked", Resource: group, Err: err.Error()})
		return nil, fmt.Errorf("%w: %v", ErrExportDenied, err)
	}
	p.recordLedger(blockchain.EventExport, group, nil, map[string]string{
		"mode": "anonymized", "principal": principal, "records": fmt.Sprint(len(out)),
	})
	p.log.Record(audit.Event{Level: audit.LevelInfo, Service: "export",
		Action: "anonymized-export", Actor: principal, Resource: group})
	return out, nil
}

// ExportFull returns re-identified records for a CRO (§II-B "Full export
// where the re-identified consented data is provided to the client").
// Every record's patient must hold an export-purpose consent; the
// principal must be the identity-map's authorized re-identification
// service.
func (p *Pipeline) ExportFull(group, principal string) ([]ExportedRecord, error) {
	out, err := p.exportRecords(group, "fhir+json;identified", principal, func(ref string) (string, error) {
		identity, err := p.idmap.Identity(ref, principal)
		if err != nil {
			return "", fmt.Errorf("%w: %v", ErrExportDenied, err)
		}
		if err := p.consents.Check(identity, group, consent.PurposeExport); err != nil {
			return "", fmt.Errorf("%w: %v", ErrExportDenied, err)
		}
		return identity, nil
	})
	if err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%w: no identified records in group %q", ErrExportDenied, group)
	}
	for _, rec := range out {
		p.recordLedger(blockchain.EventDataRetrieval, rec.RefID, nil, map[string]string{
			"mode": "full", "principal": principal,
		})
	}
	p.recordLedger(blockchain.EventExport, group, nil, map[string]string{
		"mode": "full", "principal": principal, "records": fmt.Sprint(len(out)),
	})
	p.log.Record(audit.Event{Level: audit.LevelInfo, Service: "export",
		Action: "full-export", Actor: principal, Resource: group})
	return out, nil
}

// exportRecords reads the group's records of one content type for
// principal, granting it each key in memory. admit, when set, vets a
// record before the read and returns its identity. A record shredded or
// removed since List drops out; any other error, a lost quorum say,
// fails the export rather than silently shrinking the cohort.
func (p *Pipeline) exportRecords(group, contentType, principal string, admit func(ref string) (string, error)) ([]ExportedRecord, error) {
	var out []ExportedRecord
	for _, ref := range p.lake.List(p.tenant, group) {
		meta, err := p.lake.Meta(ref)
		if err == nil && meta.ContentType != contentType {
			continue
		}
		rec := ExportedRecord{RefID: ref}
		if err == nil && admit != nil {
			if rec.Identity, err = admit(ref); err != nil {
				return nil, err
			}
		}
		if err == nil {
			err = p.lake.Grant(ref, principal)
		}
		if err == nil {
			rec.Bundle, err = p.lake.Get(ref, principal)
		}
		if errors.Is(err, store.ErrNotFound) || errors.Is(err, store.ErrDeleted) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("ingest: reading %s: %w", ref, err)
		}
		out = append(out, rec)
	}
	return out, nil
}

// Forget implements GDPR right-to-forget end to end: every record of the
// patient is crypto-shredded, the identity mapping is erased, and a
// secure-deletion event lands on the ledger. It returns the number of
// records destroyed.
func (p *Pipeline) Forget(patientID string) (int, error) {
	refs := p.idmap.Forget(patientID)
	n := 0
	for _, ref := range refs {
		if err := p.lake.SecureDelete(ref); err == nil {
			n++
		}
		p.recordLedger(blockchain.EventSecureDeletion, ref, nil, nil)
	}
	// Shred every remaining key bound to the subject (covers the
	// de-identified copies, which are keyed to the same subject).
	p.kms.ShredSubject(patientID)
	p.log.Record(audit.Event{Level: audit.LevelInfo, Service: "ingest",
		Action: "right-to-forget", Resource: fmt.Sprint(n)})
	return n, nil
}

// quasiRow extracts the quasi-identifier columns the anonymization
// verification service checks on export from the bundle's first
// Patient entry, in one narrow decode (ingest validated the bundle).
func quasiRow(bundleJSON []byte) anonymize.Record {
	row := anonymize.Record{"gender": "", "state": "", "zip": ""}
	var b struct {
		Entry []struct {
			Resource struct {
				ResourceType, Gender string
				Address              []fhir.Address
			}
		}
	}
	if err := json.Unmarshal(bundleJSON, &b); err != nil {
		return row
	}
	for _, e := range b.Entry {
		if pt := e.Resource; pt.ResourceType == "Patient" {
			row["gender"] = pt.Gender
			if len(pt.Address) > 0 {
				row["state"] = pt.Address[0].State
				row["zip"] = pt.Address[0].PostalCode
			}
			break
		}
	}
	return row
}

// WaitForIdle blocks until no uploads are mid-flight (test support). It
// wakes on the pipeline's status-change broadcast rather than polling.
func (p *Pipeline) WaitForIdle(timeout time.Duration) error {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		busy := false
		p.mu.RLock()
		ch := p.notify
		for _, st := range p.statuses {
			if !st.State.Terminal() {
				busy = true
				break
			}
		}
		p.mu.RUnlock()
		if !busy {
			return nil
		}
		select {
		case <-ch:
		case <-timer.C:
			return fmt.Errorf("ingest: pipeline still busy after %v", timeout)
		}
	}
}
