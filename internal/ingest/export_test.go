package ingest

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"healthcloud/internal/anonymize"
	"healthcloud/internal/bus"
	"healthcloud/internal/consent"
	"healthcloud/internal/durable"
	"healthcloud/internal/fhir"
	"healthcloud/internal/hckrypto"
	"healthcloud/internal/shardlake"
	"healthcloud/internal/store"
)

// flakyLake fails chosen refs' Meta or Get with a set error.
type flakyLake struct {
	store.Lake
	mu              sync.Mutex
	metaErr, getErr map[string]error
}

func (f *flakyLake) Meta(ref string) (store.Meta, error) {
	f.mu.Lock()
	err := f.metaErr[ref]
	f.mu.Unlock()
	if err != nil {
		return store.Meta{}, err
	}
	return f.Lake.Meta(ref)
}

func (f *flakyLake) Get(ref, principal string) ([]byte, error) {
	f.mu.Lock()
	err := f.getErr[ref]
	f.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return f.Lake.Get(ref, principal)
}

// TestExportSkipsOnlyVanishedRecords: a record shredded or removed
// between List and the read drops out of an export; any other read
// error fails the export instead of shrinking the cohort.
func TestExportSkipsOnlyVanishedRecords(t *testing.T) {
	quorumLost := fmt.Errorf("%w: ref", shardlake.ErrUnavailable)
	cases := []struct {
		name   string
		onMeta bool
		err    error
		fails  bool
	}{
		{"meta not found", true, fmt.Errorf("%w: ref", store.ErrNotFound), false},
		{"meta deleted", true, fmt.Errorf("%w: ref", store.ErrDeleted), false},
		{"get not found", false, fmt.Errorf("%w: ref", store.ErrNotFound), false},
		{"get deleted", false, fmt.Errorf("%w: ref", store.ErrDeleted), false},
		{"meta quorum lost", true, quorumLost, true},
		{"get quorum lost", false, quorumLost, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fl := &flakyLake{metaErr: map[string]error{}, getErr: map[string]error{}}
			r := newRigOver(t, bus.New(), nil, func(kms *hckrypto.KMS) store.Lake {
				fl.Lake = store.NewDataLake(kms, "svc-storage")
				return fl
			})
			victim := r.ingestOne(t, "clinic-1", "patient-0", "10598")
			for i := 1; i < 3; i++ {
				r.ingestOne(t, "clinic-1", fmt.Sprintf("patient-%d", i), "10598")
			}
			for i := 0; i < 3; i++ {
				r.consents.Grant(fmt.Sprintf("patient-%d", i), "study-1", consent.PurposeExport, 0)
			}
			deidRef := ""
			for _, ref := range fl.List("tenant-a", "study-1") {
				if m, _ := fl.Lake.Meta(ref); m.Tags["identified_ref"] == victim.RefID {
					deidRef = ref
				}
			}
			fl.mu.Lock()
			for _, ref := range []string{victim.RefID, deidRef} {
				if tc.onMeta {
					fl.metaErr[ref] = tc.err
				} else {
					fl.getErr[ref] = tc.err
				}
			}
			fl.mu.Unlock()

			anon, aerr := r.p.ExportAnonymized("study-1", "cro-1")
			full, ferr := r.p.ExportFull("study-1", "svc-reident")
			if tc.fails {
				if !errors.Is(aerr, tc.err) || !errors.Is(ferr, tc.err) {
					t.Fatalf("exports = %v / %v, want both to fail with %v", aerr, ferr, tc.err)
				}
				return
			}
			if aerr != nil || ferr != nil {
				t.Fatalf("exports failed: %v / %v", aerr, ferr)
			}
			if len(anon) != 2 || len(full) != 2 {
				t.Fatalf("exported %d anonymized, %d full records; want 2 each", len(anon), len(full))
			}
			for _, rec := range append(anon, full...) {
				if rec.RefID == victim.RefID || rec.RefID == deidRef {
					t.Fatalf("vanished record %s exported", rec.RefID)
				}
			}
		})
	}
}

// TestExportAfterForgetDropsShreddedCopy: Forget shreds the subject's
// keys, so the de-identified copy, still listed, reads as deleted and
// drops out of the export instead of failing it.
func TestExportAfterForgetDropsShreddedCopy(t *testing.T) {
	r := newRig(t)
	for i := 0; i < 3; i++ {
		r.ingestOne(t, "clinic-1", fmt.Sprintf("patient-%d", i), "10598")
	}
	if _, err := r.p.Forget("patient-0"); err != nil {
		t.Fatal(err)
	}
	recs, err := r.p.ExportAnonymized("study-1", "cro-1")
	if err != nil {
		t.Fatalf("ExportAnonymized after Forget: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("exported %d records, want the 2 unforgotten", len(recs))
	}
}

// TestExportsWriteNothing: exports over journaled, replicated shards
// append nothing to any lake log. A grant is an in-memory KMS
// capability; the export's ledger event is its durable record.
func TestExportsWriteNothing(t *testing.T) {
	var logs []*durable.LakeLog
	r := newRigOver(t, bus.New(), nil, func(kms *hckrypto.KMS) store.Lake {
		dir := t.TempDir()
		shards := make([]shardlake.Shard, 3)
		for i := range shards {
			lake := store.NewDataLake(kms, "svc-storage")
			log, err := durable.OpenLake(filepath.Join(dir, shardlake.ShardName(i)), lake, durable.Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { log.Close() })
			lake.SetJournal(log)
			logs = append(logs, log)
			shards[i] = shardlake.Shard{Name: shardlake.ShardName(i), Lake: lake}
		}
		sl, err := shardlake.New(shards, shardlake.Config{Replicas: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sl.Close)
		return sl
	})
	for i := 0; i < 3; i++ {
		r.ingestOne(t, "clinic-1", fmt.Sprintf("patient-%d", i), "10598")
		r.consents.Grant(fmt.Sprintf("patient-%d", i), "study-1", consent.PurposeExport, 0)
	}
	type mark struct {
		appends uint64
		bytes   int64
	}
	before := make([]mark, len(logs))
	for i, l := range logs {
		st := l.Stats()
		before[i] = mark{st.Appends, st.ActiveBytes}
	}
	for i := 0; i < 2; i++ {
		if recs, err := r.p.ExportAnonymized("study-1", "cro-1"); err != nil || len(recs) != 3 {
			t.Fatalf("ExportAnonymized #%d: %d records, %v", i+1, len(recs), err)
		}
	}
	if recs, err := r.p.ExportFull("study-1", "svc-reident"); err != nil || len(recs) != 3 {
		t.Fatalf("ExportFull: %d records, %v", len(recs), err)
	}
	for i, l := range logs {
		st := l.Stats()
		if got := (mark{st.Appends, st.ActiveBytes}); got != before[i] {
			t.Errorf("shard %d log: %+v after exports, %+v before", i, got, before[i])
		}
	}
}

// quasiRowViaParseBundle is the full-decode derivation quasiRow
// replaced: parse and validate the bundle, then every resource.
func quasiRowViaParseBundle(bundleJSON []byte) anonymize.Record {
	row := anonymize.Record{"gender": "", "state": "", "zip": ""}
	b, err := fhir.ParseBundle(bundleJSON)
	if err != nil {
		return row
	}
	resources, err := b.Resources()
	if err != nil {
		return row
	}
	for _, r := range resources {
		if pt, ok := r.(*fhir.Patient); ok {
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

func TestQuasiRowMatchesFullDecode(t *testing.T) {
	patient := func(id, gender, state, zip string) *fhir.Patient {
		p := &fhir.Patient{ResourceType: "Patient", ID: id, Gender: gender, BirthDate: "1980-04-02",
			Name: []fhir.HumanName{{Family: "Doe", Given: []string{"J"}}}}
		if state != "" {
			p.Address = []fhir.Address{{City: "Yorktown", State: state, PostalCode: zip}}
		}
		return p
	}
	obs := func(id string) *fhir.Observation {
		return &fhir.Observation{ResourceType: "Observation", ID: id, Status: "final",
			Code:          fhir.CodeableConcept{Coding: []fhir.Coding{{Code: "4548-4", Display: "HbA1c"}}},
			Subject:       fhir.Reference{Reference: "Patient/p1"},
			ValueQuantity: &fhir.Quantity{Value: 7.5, Unit: "%"}}
	}
	bundle := func(rs ...fhir.Resource) *fhir.Bundle {
		b := fhir.NewBundle("collection")
		for _, r := range rs {
			if err := b.AddResource(r); err != nil {
				t.Fatal(err)
			}
		}
		return b
	}
	deidentified := func(b *fhir.Bundle) *fhir.Bundle {
		resources, err := b.Resources()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range resources {
			if pt, ok := r.(*fhir.Patient); ok {
				out, err := deidentifiedBundle(b, anonymize.DeidentifyPatient(pt, nil))
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
		}
		t.Fatal("no patient to de-identify")
		return nil
	}
	cases := []struct {
		name   string
		bundle *fhir.Bundle
		raw    string // used when bundle is nil
		gender string // what the row must read
	}{
		{name: "patient first", bundle: bundle(patient("p1", "female", "NY", "10598"), obs("o1")), gender: "female"},
		{name: "patient after observations", bundle: bundle(obs("o1"), obs("o2"), patient("p1", "male", "CA", "94110")), gender: "male"},
		{name: "no patient", bundle: bundle(obs("o1"), obs("o2"))},
		{name: "two patients", bundle: bundle(patient("p1", "female", "NY", "10598"), patient("p2", "male", "CA", "94110")), gender: "female"},
		{name: "no address", bundle: bundle(patient("p1", "other", "", ""), obs("o1")), gender: "other"},
		{name: "malformed JSON", raw: `{"resourceType":"Bundle","type":"collection","entry":[{"resource":`},
		{name: "de-identified, patient first", bundle: deidentified(bundle(patient("p1", "female", "NY", "10598"), obs("o1"))), gender: "female"},
		{name: "de-identified, patient last", bundle: deidentified(bundle(obs("o1"), patient("p1", "male", "CA", "94110"))), gender: "male"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			raw := []byte(tc.raw)
			if tc.bundle != nil {
				var err error
				if raw, err = fhir.Marshal(tc.bundle); err != nil {
					t.Fatal(err)
				}
			}
			want := quasiRowViaParseBundle(raw)
			if want["gender"] != tc.gender {
				t.Fatalf("full decode read gender %q, want %q: the case does not test what it names", want["gender"], tc.gender)
			}
			if got := quasiRow(raw); !reflect.DeepEqual(got, want) {
				t.Errorf("quasiRow = %v, full decode = %v", got, want)
			}
		})
	}
}

// BenchmarkExportAnonymized exports a group of 150 small de-identified
// records.
func BenchmarkExportAnonymized(b *testing.B) {
	var lake *store.DataLake
	r := newRigOver(b, bus.New(), nil, func(kms *hckrypto.KMS) store.Lake {
		lake = store.NewDataLake(kms, "svc-storage")
		return lake
	})
	for i := 0; i < 150; i++ {
		id := fmt.Sprintf("patient-%03d", i)
		src := fhir.NewBundle("collection")
		pt := &fhir.Patient{ResourceType: "Patient", ID: id, Gender: "female", BirthDate: "1980-04-02",
			Address: []fhir.Address{{City: "Yorktown", State: "NY", PostalCode: "10598"}}}
		if err := src.AddResource(pt); err != nil {
			b.Fatal(err)
		}
		deid, err := deidentifiedBundle(src, anonymize.DeidentifyPatient(pt, nil))
		if err != nil {
			b.Fatal(err)
		}
		body, err := fhir.Marshal(deid)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := lake.Put(id, body, store.Meta{ContentType: "fhir+json;deidentified",
			Tenant: "tenant-a", Group: "study-1"}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if recs, err := r.p.ExportAnonymized("study-1", "cro-1"); err != nil || len(recs) != 150 {
			b.Fatalf("export: %d records, %v", len(recs), err)
		}
	}
}
