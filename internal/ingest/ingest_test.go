package ingest

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"healthcloud/internal/anonymize"
	"healthcloud/internal/audit"
	"healthcloud/internal/blockchain"
	"healthcloud/internal/bus"
	"healthcloud/internal/consent"
	"healthcloud/internal/faultinject"
	"healthcloud/internal/fhir"
	"healthcloud/internal/hckrypto"
	"healthcloud/internal/scan"
	"healthcloud/internal/store"
	"healthcloud/internal/telemetry"
)

// fakeLedger records submitted transactions.
type fakeLedger struct {
	mu  sync.Mutex
	txs []blockchain.Transaction
}

func (f *fakeLedger) SubmitCtx(tx blockchain.Transaction, _ time.Duration, _ telemetry.SpanContext) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.txs = append(f.txs, tx)
	return nil
}

func (f *fakeLedger) byType(t blockchain.EventType) []blockchain.Transaction {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []blockchain.Transaction
	for _, tx := range f.txs {
		if tx.Type == t {
			out = append(out, tx)
		}
	}
	return out
}

// rig bundles a running pipeline with its collaborators.
type rig struct {
	p        *Pipeline
	kms      *hckrypto.KMS
	lake     *store.DataLake
	consents *consent.Service
	ledger   *fakeLedger
	log      *audit.Log
}

func newRig(t *testing.T) *rig {
	t.Helper()
	return newRigWith(t, bus.New(), nil)
}

// newRigWith lets a test choose the bus (e.g. with a max-attempts cap)
// and substitute the ledger before the workers start.
func newRigWith(t *testing.T, b *bus.Bus, ledger Ledger) *rig {
	t.Helper()
	var lake *store.DataLake
	r := newRigOver(t, b, ledger, func(kms *hckrypto.KMS) store.Lake {
		lake = store.NewDataLake(kms, "svc-storage")
		return lake
	})
	r.lake = lake
	return r
}

// newRigOver builds the rig over the lake mkLake builds on the rig's
// KMS; the returned rig's lake field is left nil.
func newRigOver(t testing.TB, b *bus.Bus, ledger Ledger, mkLake func(*hckrypto.KMS) store.Lake) *rig {
	t.Helper()
	kms, err := hckrypto.NewKMS("tenant-a")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	lake := mkLake(kms)
	scanner, err := scan.NewScanner(scan.DefaultSignatures()...)
	if err != nil {
		t.Fatal(err)
	}
	fake := &fakeLedger{}
	if ledger == nil {
		ledger = fake
	}
	deps := Deps{
		Tenant: "tenant-a", KMS: kms, Lake: lake,
		IDMap: store.NewIdentityMap("svc-reident"),
		Bus:   b, Scanner: scanner,
		Consents: consent.NewService(),
		Verifier: &anonymize.VerificationService{RequiredK: 2},
		Ledger:   ledger, Log: audit.NewLog(),
	}
	p, err := New(deps)
	if err != nil {
		t.Fatal(err)
	}
	p.Start(4)
	t.Cleanup(p.Close)
	return &rig{p: p, kms: kms, consents: deps.Consents, ledger: fake, log: deps.Log}
}

// patientBundle builds and encrypts a bundle for one patient.
func patientBundle(t *testing.T, key hckrypto.SymmetricKey, clientID, patientID, zip string) []byte {
	t.Helper()
	b := fhir.NewBundle("collection")
	if err := b.AddResource(&fhir.Patient{
		ResourceType: "Patient", ID: patientID,
		Name:   []fhir.HumanName{{Family: "Doe", Given: []string{"J"}}},
		Gender: "female", BirthDate: "1980-04-02",
		Address:    []fhir.Address{{City: "Yorktown", State: "NY", PostalCode: zip}},
		Telecom:    []fhir.Telecom{{System: "phone", Value: "914-555-0000"}},
		Identifier: []fhir.Identifier{{System: "urn:mrn", Value: patientID}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddResource(&fhir.Observation{
		ResourceType: "Observation", Status: "final",
		Code:          fhir.CodeableConcept{Coding: []fhir.Coding{{Code: "4548-4", Display: "HbA1c"}}},
		Subject:       fhir.Reference{Reference: "Patient/" + patientID},
		ValueQuantity: &fhir.Quantity{Value: 7.5, Unit: "%"},
	}); err != nil {
		t.Fatal(err)
	}
	raw, err := fhir.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := hckrypto.EncryptGCM(key, raw, []byte(clientID))
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

// ingestOne registers, consents, uploads, and waits for one patient.
func (r *rig) ingestOne(t *testing.T, clientID, patientID, zip string) Status {
	t.Helper()
	key, err := r.p.RegisterClient(clientID)
	if err != nil {
		t.Fatal(err)
	}
	r.consents.Grant(patientID, "study-1", consent.PurposeResearch, 0)
	id, err := r.p.Upload(clientID, "study-1", patientBundle(t, key, clientID, patientID, zip))
	if err != nil {
		t.Fatal(err)
	}
	st, err := r.p.WaitForUpload(id, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestEndToEndIngestion(t *testing.T) {
	r := newRig(t)
	st := r.ingestOne(t, "clinic-1", "patient-1", "10598")
	if st.State != StateStored || st.RefID == "" {
		t.Fatalf("status = %+v", st)
	}
	// A waiter woken by the terminal state finds its records in place.
	if got := r.p.Completed(); got < 1 {
		t.Errorf("Completed() = %d when the stored waiter returned", got)
	}
	if got := r.log.Find(audit.Query{Action: "stored"}); len(got) != 1 {
		t.Errorf("stored audit events = %d when the stored waiter returned", len(got))
	}
	// Both identified and de-identified copies are in the lake.
	if r.lake.Count() != 2 {
		t.Errorf("lake count = %d, want 2", r.lake.Count())
	}
	// Provenance recorded.
	receipts := r.ledger.byType(blockchain.EventDataReceipt)
	if len(receipts) != 1 || receipts[0].Handle != st.RefID {
		t.Errorf("receipts = %+v", receipts)
	}
	// The stored identified record decrypts for the storage service.
	body, err := r.lake.Get(st.RefID, "svc-storage")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "Doe") {
		t.Error("identified record lost the patient name")
	}
}

func TestDeidentifiedCopyHasNoPHI(t *testing.T) {
	r := newRig(t)
	st := r.ingestOne(t, "clinic-1", "patient-1", "10598")
	var deidRef string
	for _, ref := range r.lake.List("tenant-a", "study-1") {
		meta, _ := r.lake.Meta(ref)
		if meta.ContentType == "fhir+json;deidentified" {
			deidRef = ref
		}
	}
	if deidRef == "" {
		t.Fatal("no de-identified record stored")
	}
	body, err := r.lake.Get(deidRef, "svc-storage")
	if err != nil {
		t.Fatal(err)
	}
	s := string(body)
	for _, phi := range []string{"Doe", "914-555", "1980-04-02", "10598", "Yorktown"} {
		if strings.Contains(s, phi) {
			t.Errorf("de-identified record contains %q", phi)
		}
	}
	// Non-PHI analytics payload survives.
	if !strings.Contains(s, "4548-4") {
		t.Error("observation lost during de-identification")
	}
	_ = st
}

func TestUploadUnknownClient(t *testing.T) {
	r := newRig(t)
	if _, err := r.p.Upload("ghost", "study-1", []byte("x")); !errors.Is(err, ErrUnknownClient) {
		t.Errorf("got %v", err)
	}
}

func TestStatusUnknownUpload(t *testing.T) {
	r := newRig(t)
	if _, err := r.p.Status("ghost"); !errors.Is(err, ErrUnknownUpload) {
		t.Errorf("got %v", err)
	}
}

func TestBadCiphertextFails(t *testing.T) {
	r := newRig(t)
	if _, err := r.p.RegisterClient("clinic-1"); err != nil {
		t.Fatal(err)
	}
	id, err := r.p.Upload("clinic-1", "study-1", []byte("not encrypted"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := r.p.WaitForUpload(id, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed || !strings.Contains(st.Error, "decrypt") {
		t.Errorf("status = %+v", st)
	}
}

func TestInvalidBundleFails(t *testing.T) {
	r := newRig(t)
	key, _ := r.p.RegisterClient("clinic-1")
	ct, err := hckrypto.EncryptGCM(key, []byte(`{"resourceType":"Bundle","type":"party"}`), []byte("clinic-1"))
	if err != nil {
		t.Fatal(err)
	}
	id, _ := r.p.Upload("clinic-1", "study-1", ct)
	st, _ := r.p.WaitForUpload(id, 5*time.Second)
	if st.State != StateFailed || !strings.Contains(st.Error, "validate") {
		t.Errorf("status = %+v", st)
	}
}

func TestMalwareBlockedAndReported(t *testing.T) {
	r := newRig(t)
	key, _ := r.p.RegisterClient("clinic-1")
	b := fhir.NewBundle("collection")
	b.AddResource(&fhir.Patient{ResourceType: "Patient", ID: "p1"})
	// Note: the pattern must survive encoding/json's HTML escaping, so use
	// the shell-dropper signature rather than the <script> one.
	b.AddResource(&fhir.Observation{ResourceType: "Observation", Status: "final",
		Code: fhir.CodeableConcept{Text: "note"}, ValueString: "run curl http://malware now"})
	raw, _ := fhir.Marshal(b)
	ct, _ := hckrypto.EncryptGCM(key, raw, []byte("clinic-1"))
	id, _ := r.p.Upload("clinic-1", "study-1", ct)
	st, _ := r.p.WaitForUpload(id, 5*time.Second)
	if st.State != StateFailed || !strings.Contains(st.Error, "malware") {
		t.Fatalf("status = %+v", st)
	}
	if len(r.ledger.byType(blockchain.EventMalwareReport)) != 1 {
		t.Error("malware report not recorded on ledger")
	}
	if r.lake.Count() != 0 {
		t.Error("malicious record reached the lake")
	}
}

func TestConsentRequired(t *testing.T) {
	r := newRig(t)
	key, _ := r.p.RegisterClient("clinic-1")
	// No consent granted.
	id, _ := r.p.Upload("clinic-1", "study-1", patientBundle(t, key, "clinic-1", "patient-9", "10598"))
	st, _ := r.p.WaitForUpload(id, 5*time.Second)
	if st.State != StateFailed || !strings.Contains(st.Error, "consent") {
		t.Errorf("status = %+v", st)
	}
	if r.lake.Count() != 0 {
		t.Error("unconsented record stored")
	}
}

func TestBundleWithoutPatientFails(t *testing.T) {
	r := newRig(t)
	key, _ := r.p.RegisterClient("clinic-1")
	b := fhir.NewBundle("collection")
	b.AddResource(&fhir.Observation{ResourceType: "Observation", Status: "final",
		Code: fhir.CodeableConcept{Text: "x"}})
	raw, _ := fhir.Marshal(b)
	ct, _ := hckrypto.EncryptGCM(key, raw, []byte("clinic-1"))
	id, _ := r.p.Upload("clinic-1", "study-1", ct)
	st, _ := r.p.WaitForUpload(id, 5*time.Second)
	if st.State != StateFailed || !strings.Contains(st.Error, "no patient") {
		t.Errorf("status = %+v", st)
	}
}

func TestConcurrentUploads(t *testing.T) {
	r := newRig(t)
	key, _ := r.p.RegisterClient("clinic-1")
	const total = 20
	ids := make([]string, total)
	for i := 0; i < total; i++ {
		pid := fmt.Sprintf("patient-%02d", i)
		r.consents.Grant(pid, "study-1", consent.PurposeResearch, 0)
		id, err := r.p.Upload("clinic-1", "study-1", patientBundle(t, key, "clinic-1", pid, "10598"))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	for _, id := range ids {
		st, err := r.p.WaitForUpload(id, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateStored {
			t.Errorf("upload %s: %+v", id, st)
		}
	}
	if r.lake.Count() != 2*total {
		t.Errorf("lake count = %d, want %d", r.lake.Count(), 2*total)
	}
}

func TestExportAnonymized(t *testing.T) {
	r := newRig(t)
	// Three patients with the same quasi-identifiers → k=3 cohort.
	for i := 0; i < 3; i++ {
		r.ingestOne(t, "clinic-1", fmt.Sprintf("patient-%d", i), "10598")
	}
	recs, err := r.p.ExportAnonymized("study-1", "cro-1")
	if err != nil {
		t.Fatalf("ExportAnonymized: %v", err)
	}
	if len(recs) != 3 {
		t.Fatalf("exported %d records", len(recs))
	}
	for _, rec := range recs {
		if strings.Contains(string(rec.Bundle), "Doe") {
			t.Error("anonymized export leaked a name")
		}
		if rec.Identity != "" {
			t.Error("anonymized export carries identity")
		}
	}
	if len(r.ledger.byType(blockchain.EventExport)) != 1 {
		t.Error("export not recorded on ledger")
	}
}

func TestExportAnonymizedBlockedUnderK(t *testing.T) {
	r := newRig(t)
	// A single record cannot meet k=2.
	r.ingestOne(t, "clinic-1", "patient-1", "10598")
	if _, err := r.p.ExportAnonymized("study-1", "cro-1"); !errors.Is(err, ErrExportDenied) {
		t.Errorf("got %v, want ErrExportDenied", err)
	}
}

func TestExportFull(t *testing.T) {
	r := newRig(t)
	st := r.ingestOne(t, "clinic-1", "patient-1", "10598")
	// Full export needs export-purpose consent and the authorized principal.
	if _, err := r.p.ExportFull("study-1", "svc-reident"); !errors.Is(err, ErrExportDenied) {
		t.Errorf("without export consent: %v", err)
	}
	r.consents.Grant("patient-1", "study-1", consent.PurposeExport, 0)
	if _, err := r.p.ExportFull("study-1", "cro-1"); !errors.Is(err, ErrExportDenied) {
		t.Errorf("unauthorized principal: %v", err)
	}
	recs, err := r.p.ExportFull("study-1", "svc-reident")
	if err != nil {
		t.Fatalf("ExportFull: %v", err)
	}
	if len(recs) != 1 || recs[0].Identity != "patient-1" || recs[0].RefID != st.RefID {
		t.Errorf("records = %+v", recs)
	}
	if !strings.Contains(string(recs[0].Bundle), "Doe") {
		t.Error("full export lost identified content")
	}
}

func TestForget(t *testing.T) {
	r := newRig(t)
	st := r.ingestOne(t, "clinic-1", "patient-1", "10598")
	n, err := r.p.Forget("patient-1")
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("forgot %d records, want 1 (identified)", n)
	}
	// Identified record unreadable.
	if _, err := r.lake.Get(st.RefID, "svc-storage"); err == nil {
		t.Error("identified record readable after Forget")
	}
	// De-identified copy crypto-shredded via subject keys.
	for _, ref := range r.lake.List("tenant-a", "study-1") {
		if _, err := r.lake.Get(ref, "svc-storage"); err == nil {
			t.Errorf("record %s still readable after Forget", ref)
		}
	}
	if len(r.ledger.byType(blockchain.EventSecureDeletion)) != 1 {
		t.Error("secure deletion not recorded on ledger")
	}
	// Identity mapping gone: a second Forget finds nothing.
	if n, _ := r.p.Forget("patient-1"); n != 0 {
		t.Errorf("second Forget removed %d", n)
	}
}

func TestDepsValidation(t *testing.T) {
	if _, err := New(Deps{}); err == nil {
		t.Error("empty deps accepted")
	}
}

func TestWaitForIdle(t *testing.T) {
	r := newRig(t)
	// Idle pipeline returns immediately.
	if err := r.p.WaitForIdle(time.Second); err != nil {
		t.Fatalf("idle wait: %v", err)
	}
	key, _ := r.p.RegisterClient("clinic-1")
	r.consents.Grant("patient-1", "study-1", consent.PurposeResearch, 0)
	if _, err := r.p.Upload("clinic-1", "study-1", patientBundle(t, key, "clinic-1", "patient-1", "10598")); err != nil {
		t.Fatal(err)
	}
	if err := r.p.WaitForIdle(10 * time.Second); err != nil {
		t.Fatalf("WaitForIdle: %v", err)
	}
	if r.lake.Count() != 2 {
		t.Errorf("lake count after idle = %d", r.lake.Count())
	}
}

func TestLedgerFailureDeadLetters(t *testing.T) {
	// A persistently failing provenance ledger is a transient
	// infrastructure fault: the upload is retried up to the bus's
	// attempt cap and then parked on the DLQ with the reason surfaced at
	// the status URL — it is never silently lost, and the data is never
	// reported stored without its provenance receipt.
	r := newRigWith(t, bus.New(bus.WithMaxAttempts(3)), failingLedger{})
	key, err := r.p.RegisterClient("clinic-1")
	if err != nil {
		t.Fatal(err)
	}
	r.consents.Grant("patient-1", "study-1", consent.PurposeResearch, 0)
	id, err := r.p.Upload("clinic-1", "study-1", patientBundle(t, key, "clinic-1", "patient-1", "10598"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := r.p.WaitForUpload(id, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDeadLettered {
		t.Fatalf("status with failing ledger = %+v", st)
	}
	if !strings.Contains(st.Error, "ledger") {
		t.Errorf("dead-letter reason %q does not name the ledger", st.Error)
	}
	if st.Attempts != 3 {
		t.Errorf("attempts = %d, want 3", st.Attempts)
	}
	if r.p.Retries() == 0 || r.p.DeadLettered() != 1 {
		t.Errorf("retries=%d deadLettered=%d", r.p.Retries(), r.p.DeadLettered())
	}
	if got := r.log.Find(audit.Query{Action: "ingest-dead-lettered"}); len(got) != 1 {
		t.Errorf("dead-letter audit events = %d, want 1", len(got))
	}
}

func TestTransientStoreFailureRecovers(t *testing.T) {
	// A lake write that fails on the first delivery succeeds on a
	// retried one: the upload ends stored with Attempts > 1 and nothing
	// reaches the DLQ.
	faults := faultinject.NewRegistry(7)
	faults.Enable(store.FaultLakePut, faultinject.Fault{FailFirst: 1})
	r := newRigWith(t, bus.New(bus.WithMaxAttempts(5)), nil)
	r.lake.SetFaults(faults)
	st := r.ingestOne(t, "clinic-1", "patient-1", "10598")
	if st.State != StateStored {
		t.Fatalf("status = %+v", st)
	}
	if st.Attempts < 2 {
		t.Errorf("attempts = %d, want >= 2", st.Attempts)
	}
	if r.p.DeadLettered() != 0 {
		t.Errorf("deadLettered = %d", r.p.DeadLettered())
	}
	// The retry must not have duplicated storage: one identified + one
	// de-identified record.
	if r.lake.Count() != 2 {
		t.Errorf("lake count = %d, want 2 (idempotent retry)", r.lake.Count())
	}
}

type failingLedger struct{}

func (failingLedger) SubmitCtx(blockchain.Transaction, time.Duration, telemetry.SpanContext) error {
	return errors.New("ledger unavailable")
}
