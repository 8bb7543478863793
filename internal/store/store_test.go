package store

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"healthcloud/internal/faultinject"
	"healthcloud/internal/hckrypto"
	"healthcloud/internal/telemetry"
)

func newTestLake(t *testing.T) (*DataLake, *hckrypto.KMS) {
	t.Helper()
	kms, err := hckrypto.NewKMS("tenant-a")
	if err != nil {
		t.Fatal(err)
	}
	return NewDataLake(kms, "svc-storage"), kms
}

func TestPutGetRoundTrip(t *testing.T) {
	lake, _ := newTestLake(t)
	phi := []byte(`{"patient":"ref only","hba1c":8.1}`)
	ref, err := lake.Put("patient-1", phi, Meta{ContentType: "fhir+json", Tenant: "tenant-a", Group: "study-1"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := lake.Get(ref, "svc-storage")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, phi) {
		t.Error("round trip mismatch")
	}
}

func TestGetUnknownRef(t *testing.T) {
	lake, _ := newTestLake(t)
	if _, err := lake.Get("ref-ghost", "svc-storage"); !errors.Is(err, ErrNotFound) {
		t.Errorf("got %v, want ErrNotFound", err)
	}
}

func TestNeedToKnowEnforced(t *testing.T) {
	lake, _ := newTestLake(t)
	ref, err := lake.Put("patient-1", []byte("phi"), Meta{Tenant: "tenant-a"})
	if err != nil {
		t.Fatal(err)
	}
	// A principal without a key grant cannot decrypt.
	if _, err := lake.Get(ref, "svc-analytics"); !errors.Is(err, hckrypto.ErrAccessDenied) {
		t.Errorf("ungranted read: got %v, want ErrAccessDenied", err)
	}
	if err := lake.Grant(ref, "svc-analytics"); err != nil {
		t.Fatal(err)
	}
	if _, err := lake.Get(ref, "svc-analytics"); err != nil {
		t.Errorf("granted read failed: %v", err)
	}
	if err := lake.Grant("ref-ghost", "x"); !errors.Is(err, ErrNotFound) {
		t.Errorf("grant on unknown ref: %v", err)
	}
}

func TestSecureDelete(t *testing.T) {
	lake, kms := newTestLake(t)
	ref, err := lake.Put("patient-1", []byte("phi"), Meta{Tenant: "tenant-a"})
	if err != nil {
		t.Fatal(err)
	}
	if err := lake.SecureDelete(ref); err != nil {
		t.Fatal(err)
	}
	if _, err := lake.Get(ref, "svc-storage"); !errors.Is(err, ErrDeleted) {
		t.Errorf("deleted read: got %v, want ErrDeleted", err)
	}
	if kms.KeyCount() != 0 {
		t.Error("data key survived secure deletion")
	}
	// Idempotent.
	if err := lake.SecureDelete(ref); err != nil {
		t.Errorf("second delete: %v", err)
	}
	if err := lake.SecureDelete("ref-ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("delete unknown: %v", err)
	}
}

func TestRightToForgetViaKMSShred(t *testing.T) {
	lake, kms := newTestLake(t)
	var refs []string
	for i := 0; i < 3; i++ {
		ref, err := lake.Put("patient-7", []byte(fmt.Sprintf("record-%d", i)), Meta{Tenant: "tenant-a"})
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref)
	}
	other, err := lake.Put("patient-8", []byte("other"), Meta{Tenant: "tenant-a"})
	if err != nil {
		t.Fatal(err)
	}
	// GDPR erasure: shred every key belonging to the subject.
	if n := kms.ShredSubject("patient-7"); n != 3 {
		t.Fatalf("shredded %d keys, want 3", n)
	}
	for _, ref := range refs {
		if _, err := lake.Get(ref, "svc-storage"); err == nil {
			t.Errorf("record %s readable after right-to-forget", ref)
		}
	}
	if _, err := lake.Get(other, "svc-storage"); err != nil {
		t.Errorf("unrelated patient's record lost: %v", err)
	}
}

func TestMetaAndList(t *testing.T) {
	lake, _ := newTestLake(t)
	r1, _ := lake.Put("p1", []byte("a"), Meta{Tenant: "tenant-a", Group: "study-1", ContentType: "fhir+json"})
	r2, _ := lake.Put("p2", []byte("b"), Meta{Tenant: "tenant-a", Group: "study-2"})
	lake.Put("p3", []byte("c"), Meta{Tenant: "tenant-b"})

	m, err := lake.Meta(r1)
	if err != nil {
		t.Fatal(err)
	}
	if m.ContentType != "fhir+json" || m.CreatedAt.IsZero() {
		t.Errorf("meta = %+v", m)
	}
	if _, err := lake.Meta("ref-ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("meta unknown: %v", err)
	}

	if got := lake.List("tenant-a", ""); len(got) != 2 {
		t.Errorf("tenant-a records = %v", got)
	}
	if got := lake.List("tenant-a", "study-2"); len(got) != 1 || got[0] != r2 {
		t.Errorf("study-2 records = %v", got)
	}
	if got := lake.List("", ""); len(got) != 3 {
		t.Errorf("all records = %v", got)
	}
	if lake.Count() != 3 {
		t.Errorf("Count = %d", lake.Count())
	}
	lake.SecureDelete(r2)
	if lake.Count() != 2 {
		t.Errorf("Count after delete = %d", lake.Count())
	}
	if got := lake.List("tenant-a", "study-2"); len(got) != 0 {
		t.Errorf("deleted record still listed: %v", got)
	}
}

func TestCiphertextNotPlaintext(t *testing.T) {
	lake, _ := newTestLake(t)
	secret := []byte("THE-SECRET-DIAGNOSIS")
	ref, err := lake.Put("p1", secret, Meta{Tenant: "t"})
	if err != nil {
		t.Fatal(err)
	}
	lake.mu.RLock()
	ct := lake.records[ref].ciphertext
	lake.mu.RUnlock()
	if bytes.Contains(ct, secret) {
		t.Error("plaintext visible in stored ciphertext")
	}
}

func TestConcurrentPutGet(t *testing.T) {
	lake, _ := newTestLake(t)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				body := []byte(fmt.Sprintf("g%d-i%d", g, i))
				ref, err := lake.Put(fmt.Sprintf("p-%d", g), body, Meta{Tenant: "t"})
				if err != nil {
					errs <- err
					return
				}
				got, err := lake.Get(ref, "svc-storage")
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, body) {
					errs <- fmt.Errorf("mismatch for %s", ref)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if lake.Count() != 32 {
		t.Errorf("Count = %d, want 32", lake.Count())
	}
}

func TestStaging(t *testing.T) {
	s := NewStaging()
	id, err := s.Put([]byte("encrypted-bundle"))
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
	// Get is non-destructive (retries re-read the same bytes).
	for i := 0; i < 2; i++ {
		data, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != "encrypted-bundle" {
			t.Errorf("data = %q", data)
		}
	}
	data, err := s.Take(id)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "encrypted-bundle" {
		t.Errorf("data = %q", data)
	}
	if s.Len() != 0 {
		t.Error("upload not consumed")
	}
	// Exactly-once consumption.
	if _, err := s.Take(id); !errors.Is(err, ErrNotFound) {
		t.Errorf("second take: %v", err)
	}
}

func TestStagingRemove(t *testing.T) {
	s := NewStaging()
	id, err := s.Put([]byte("bundle"))
	if err != nil {
		t.Fatal(err)
	}
	s.Remove(id)
	if _, err := s.Get(id); !errors.Is(err, ErrNotFound) {
		t.Errorf("get after remove: %v", err)
	}
	s.Remove(id) // removing twice is a no-op
}

func TestStagingPutFault(t *testing.T) {
	s := NewStaging()
	reg := faultinject.NewRegistry(1)
	reg.Enable(FaultStagingPut, faultinject.Fault{ErrorRate: 1})
	s.SetFaults(reg)
	if _, err := s.Put([]byte("x")); !errors.Is(err, faultinject.ErrInjected) {
		t.Errorf("Put with injected fault: %v", err)
	}
	if s.Len() != 0 {
		t.Error("failed put left data staged")
	}
}

func TestStagingIsolation(t *testing.T) {
	s := NewStaging()
	buf := []byte("mutable")
	id, err := s.Put(buf)
	if err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X'
	got, _ := s.Take(id)
	if string(got) != "mutable" {
		t.Error("staging did not copy the upload")
	}
}

func TestIdentityMapAccessControl(t *testing.T) {
	im := NewIdentityMap("svc-reident")
	im.Bind("ref-1", "patient-jane")
	if _, err := im.Identity("ref-1", "svc-analytics"); !errors.Is(err, ErrIdentity) {
		t.Errorf("unauthorized resolve: %v", err)
	}
	id, err := im.Identity("ref-1", "svc-reident")
	if err != nil || id != "patient-jane" {
		t.Errorf("authorized resolve = %q, %v", id, err)
	}
	if _, err := im.Identity("ref-ghost", "svc-reident"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown ref: %v", err)
	}
}

func TestIdentityMapForget(t *testing.T) {
	im := NewIdentityMap("svc-reident")
	im.Bind("ref-1", "patient-jane")
	im.Bind("ref-2", "patient-jane")
	im.Bind("ref-3", "patient-bob")
	refs := im.Forget("patient-jane")
	if len(refs) != 2 {
		t.Fatalf("Forget returned %v", refs)
	}
	for _, ref := range refs {
		if _, err := im.Identity(ref, "svc-reident"); !errors.Is(err, ErrNotFound) {
			t.Errorf("%s still mapped after Forget", ref)
		}
	}
	if _, err := im.Identity("ref-3", "svc-reident"); err != nil {
		t.Errorf("unrelated mapping lost: %v", err)
	}
	if got := im.Forget("patient-jane"); len(got) != 0 {
		t.Errorf("second Forget = %v", got)
	}
}

// Property: any payload round-trips through the encrypted lake intact.
func TestQuickLakeRoundTrip(t *testing.T) {
	lake, _ := newTestLake(t)
	f := func(body []byte, subject uint8) bool {
		ref, err := lake.Put(fmt.Sprintf("p-%d", subject), body, Meta{Tenant: "t"})
		if err != nil {
			return false
		}
		got, err := lake.Get(ref, "svc-storage")
		if err != nil {
			return false
		}
		return bytes.Equal(got, body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestLakePingFaultPoint(t *testing.T) {
	lake, _ := newTestLake(t)
	reg := faultinject.NewRegistry(7)
	lake.SetFaults(reg)

	// The dedicated ping point fails probes without touching writes.
	reg.Enable(FaultLakePing, faultinject.Fault{ErrorRate: 1})
	if err := lake.Ping(); !errors.Is(err, faultinject.ErrInjected) {
		t.Errorf("Ping with injected probe fault: %v", err)
	}
	ref, err := lake.Put("p", []byte("x"), Meta{Tenant: "tenant-a", Group: "g"})
	if err != nil {
		t.Fatalf("Put must survive a ping-only fault: %v", err)
	}
	if _, err := lake.Get(ref, "svc-storage"); err != nil {
		t.Fatalf("Get must survive a ping-only fault: %v", err)
	}

	// Ping also consults the write and read paths, so a downed put
	// point fails the probe even with the ping point healthy.
	reg.Disable(FaultLakePing)
	reg.Enable(FaultLakePut, faultinject.Fault{ErrorRate: 1})
	if err := lake.Ping(); !errors.Is(err, faultinject.ErrInjected) {
		t.Errorf("Ping with downed write path: %v", err)
	}
	reg.Disable(FaultLakePut)
	if err := lake.Ping(); err != nil {
		t.Errorf("Ping after healing: %v", err)
	}
}

func TestLakePingLatencyHistogram(t *testing.T) {
	lake, _ := newTestLake(t)
	reg := telemetry.NewRegistry()
	lake.SetTelemetry(reg)
	for i := 0; i < 3; i++ {
		if err := lake.Ping(); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Histograms["lake_ping_seconds"].Count; got != 3 {
		t.Errorf("lake_ping_seconds count = %d, want 3", got)
	}
}

func TestSealedRecordPortability(t *testing.T) {
	// Two lakes sharing one KMS: a record sealed on one installs and
	// opens on the other byte-for-byte — the property replication
	// depends on.
	kms, err := hckrypto.NewKMS("tenant-a")
	if err != nil {
		t.Fatal(err)
	}
	a := NewDataLake(kms, "svc-storage")
	b := NewDataLake(kms, "svc-storage")
	sealed, err := a.Seal("patient-1", []byte("phi"), Meta{Tenant: "tenant-a", Group: "g"})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.PutSealed(sealed); err != nil {
		t.Fatal(err)
	}
	got, err := b.Open(sealed, "svc-storage")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("phi")) {
		t.Error("sealed record did not round-trip across lakes")
	}
}

func TestPutSealedTombstoneWins(t *testing.T) {
	lake, _ := newTestLake(t)
	ref, err := lake.Put("patient-1", []byte("phi"), Meta{Tenant: "tenant-a", Group: "g"})
	if err != nil {
		t.Fatal(err)
	}
	stale, err := lake.GetSealed(ref) // live copy, as a replica would hold it
	if err != nil {
		t.Fatal(err)
	}
	if err := lake.SecureDelete(ref); err != nil {
		t.Fatal(err)
	}
	// A late replica write must not resurrect the deleted record.
	if err := lake.PutSealed(stale); err != nil {
		t.Fatal(err)
	}
	got, err := lake.GetSealed(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Deleted {
		t.Error("stale live replica overwrote a tombstone")
	}
	if _, err := lake.Get(ref, "svc-storage"); !errors.Is(err, ErrDeleted) {
		t.Errorf("Get after tombstone-wins = %v, want ErrDeleted", err)
	}
}

func TestRefsIncludeTombstonesAndEvict(t *testing.T) {
	lake, _ := newTestLake(t)
	var refs []string
	for i := 0; i < 3; i++ {
		ref, err := lake.Put(fmt.Sprintf("p-%d", i), []byte("x"), Meta{Tenant: "tenant-a", Group: "g"})
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref)
	}
	if err := lake.SecureDelete(refs[1]); err != nil {
		t.Fatal(err)
	}
	all := lake.Refs()
	if len(all) != 3 {
		t.Fatalf("Refs = %v, want all 3 including the tombstone", all)
	}
	for i := 1; i < len(all); i++ {
		if all[i-1] >= all[i] {
			t.Fatalf("Refs not sorted: %v", all)
		}
	}
	lake.Evict(refs[0])
	if got := len(lake.Refs()); got != 2 {
		t.Errorf("Refs after Evict = %d entries, want 2", got)
	}
	if _, err := lake.GetSealed(refs[0]); !errors.Is(err, ErrNotFound) {
		t.Errorf("GetSealed after Evict = %v, want ErrNotFound", err)
	}
}

func TestSetFaultScopeRenamesPoints(t *testing.T) {
	lake, _ := newTestLake(t)
	reg := faultinject.NewRegistry(7)
	lake.SetFaults(reg)
	lake.SetFaultScope("shardlake.shard-9")

	// The default point no longer applies; the scoped one does.
	reg.Enable(FaultLakePut, faultinject.Fault{ErrorRate: 1})
	if _, err := lake.Put("p", []byte("x"), Meta{Tenant: "tenant-a", Group: "g"}); err != nil {
		t.Fatalf("Put tripped the unscoped fault point after rescoping: %v", err)
	}
	reg.Enable("shardlake.shard-9.put", faultinject.Fault{ErrorRate: 1})
	if _, err := lake.Put("p", []byte("x"), Meta{Tenant: "tenant-a", Group: "g"}); !errors.Is(err, faultinject.ErrInjected) {
		t.Errorf("Put with scoped fault: %v", err)
	}
}

// countingJournal counts the frames a lake stages.
type countingJournal struct{ frames atomic.Int64 }

func (j *countingJournal) Append(JournalRecord) (func() error, error) {
	j.frames.Add(1)
	return nil, nil
}

// TestGrantAppendsNoFrame: a grant is an in-memory KMS capability, not
// a lake mutation, so it stages no journal frame — and still gates
// reads the same way.
func TestGrantAppendsNoFrame(t *testing.T) {
	lake, _ := newTestLake(t)
	j := &countingJournal{}
	lake.SetJournal(j)
	ref, err := lake.Put("patient-1", []byte("phi"), Meta{Tenant: "tenant-a"})
	if err != nil {
		t.Fatal(err)
	}
	before := j.frames.Load()
	if err := lake.Grant(ref, "svc-analytics"); err != nil {
		t.Fatal(err)
	}
	if got := j.frames.Load(); got != before {
		t.Errorf("Grant staged %d journal frames, want 0", got-before)
	}
	if _, err := lake.Get(ref, "svc-analytics"); err != nil {
		t.Errorf("granted read: %v", err)
	}
	if _, err := lake.Get(ref, "svc-other"); !errors.Is(err, hckrypto.ErrAccessDenied) {
		t.Errorf("ungranted read: got %v, want ErrAccessDenied", err)
	}
	if err := lake.Grant("ref-ghost", "svc-analytics"); !errors.Is(err, ErrNotFound) {
		t.Errorf("grant on unknown ref: got %v, want ErrNotFound", err)
	}
}

// TestShreddedKeyReadsAsDeleted: a record whose key was shredded
// (right-to-forget shreds a subject's keys without tombstoning every
// copy) reads as deleted, tombstone or not.
func TestShreddedKeyReadsAsDeleted(t *testing.T) {
	lake, kms := newTestLake(t)
	ref, err := lake.Put("patient-1", []byte("phi"), Meta{Tenant: "tenant-a"})
	if err != nil {
		t.Fatal(err)
	}
	kms.ShredSubject("patient-1")
	if _, err := lake.Get(ref, "svc-storage"); !errors.Is(err, ErrDeleted) {
		t.Errorf("read after key shred: got %v, want ErrDeleted", err)
	}
}
