package store

import (
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
	mrand "math/rand"
	"testing"
	"time"

	"healthcloud/internal/fhir"
	"healthcloud/internal/hckrypto"
)

// bundle builds a FHIR bundle shaped like the platform's uploads: one
// Patient plus observations lab results with seeded values.
func bundle(tb testing.TB, seed int64, observations int) []byte {
	tb.Helper()
	rng := mrand.New(mrand.NewSource(seed))
	codes := []string{"HbA1c", "LDL cholesterol", "Systolic blood pressure", "Heart rate", "Serum creatinine", "Body mass index"}
	units := []string{"%", "mg/dL", "mmHg", "/min", "mg/dL", "kg/m2"}
	id := fmt.Sprintf("pat-%d", seed)
	b := fhir.NewBundle("collection")
	if err := b.AddResource(&fhir.Patient{
		ResourceType: "Patient", ID: id, Gender: "female",
		BirthDate: fmt.Sprintf("%04d-%02d-%02d", 1940+rng.Intn(70), 1+rng.Intn(12), 1+rng.Intn(28)),
		Name:      []fhir.HumanName{{Family: "Rivera", Given: []string{"Ana"}}},
		Address:   []fhir.Address{{City: "Springfield", State: "IL", PostalCode: fmt.Sprintf("627%02d", rng.Intn(100))}},
	}); err != nil {
		tb.Fatal(err)
	}
	day := time.Date(2018, 1, 1, 8, 0, 0, 0, time.UTC)
	for k := 0; k < observations; k++ {
		c := rng.Intn(len(codes))
		if err := b.AddResource(&fhir.Observation{
			ResourceType: "Observation", ID: fmt.Sprintf("%s-obs-%d", id, k), Status: "final",
			Code:              fhir.CodeableConcept{Text: codes[c]},
			Subject:           fhir.Reference{Reference: "Patient/" + id},
			EffectiveDateTime: day.Add(time.Duration(rng.Intn(365*24)) * time.Hour).Format(time.RFC3339),
			ValueQuantity:     &fhir.Quantity{Value: float64(rng.Intn(20000)) / 100, Unit: units[c]},
		}); err != nil {
			tb.Fatal(err)
		}
	}
	plain, err := fhir.Marshal(b)
	if err != nil {
		tb.Fatal(err)
	}
	return plain
}

func sealCases(tb testing.TB) []struct {
	name  string
	plain []byte
} {
	random := make([]byte, 64<<10)
	if _, err := rand.Read(random); err != nil {
		tb.Fatal(err)
	}
	return []struct {
		name  string
		plain []byte
	}{
		{"empty", nil},
		{"one-byte", []byte{'x'}},
		{"small-bundle", bundle(tb, 1, 2)},
		{"large-bundle", bundle(tb, 2, 150)},
		{"incompressible-64k", random},
	}
}

func TestSealOpenRoundTrip(t *testing.T) {
	lake, _ := newTestLake(t)
	for _, tc := range sealCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			ref, err := lake.Put("patient-1", tc.plain, Meta{Tenant: "tenant-a"})
			if err != nil {
				t.Fatal(err)
			}
			got, err := lake.Get(ref, "svc-storage")
			if err != nil || !bytes.Equal(got, tc.plain) {
				t.Fatalf("Put/Get: %d bytes back, want %d (err %v)", len(got), len(tc.plain), err)
			}
			s, err := lake.Seal("patient-1", tc.plain, Meta{Tenant: "tenant-a"})
			if err != nil {
				t.Fatal(err)
			}
			got, err = lake.Open(s, "svc-storage")
			if err != nil || !bytes.Equal(got, tc.plain) {
				t.Fatalf("Seal/Open: %d bytes back, want %d (err %v)", len(got), len(tc.plain), err)
			}
		})
	}
}

func TestOpenTamperedCiphertextFails(t *testing.T) {
	lake, _ := newTestLake(t)
	s, err := lake.Seal("patient-1", bundle(t, 3, 20), Meta{})
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, len(s.Ciphertext) / 2, len(s.Ciphertext) - 1} {
		tampered := s
		tampered.Ciphertext = bytes.Clone(s.Ciphertext)
		tampered.Ciphertext[i] ^= 0x01
		if _, err := lake.Open(tampered, "svc-storage"); !errors.Is(err, hckrypto.ErrDecrypt) {
			t.Errorf("byte %d flipped: err = %v, want the decrypt error", i, err)
		}
	}
}

// A bench-shaped 150-Observation bundle is repetitive FHIR JSON; sealed
// records are deflated first, so the ciphertext is a fraction of it.
func TestSealCompressesLargeBundle(t *testing.T) {
	lake, _ := newTestLake(t)
	plain := bundle(t, 4, 150)
	s, err := lake.Seal("patient-1", plain, Meta{})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Ciphertext)*4 >= len(plain) {
		t.Errorf("sealed %d plaintext bytes into %d, want < 1/4", len(plain), len(s.Ciphertext))
	}
}

// Ciphertext is immutable, so neither the replica read nor journal
// replay copies it: both hand out or take over the installed array.
func TestSealedCiphertextIsShared(t *testing.T) {
	lake, _ := newTestLake(t)
	s, err := lake.Seal("patient-1", bundle(t, 5, 2), Meta{})
	if err != nil {
		t.Fatal(err)
	}
	if err := lake.PutSealed(s); err != nil {
		t.Fatal(err)
	}
	got, err := lake.GetSealed(s.RefID)
	if err != nil {
		t.Fatal(err)
	}
	if &got.Ciphertext[0] != &s.Ciphertext[0] {
		t.Error("GetSealed copied the ciphertext instead of returning the installed array")
	}
	replayed, _ := newTestLake(t)
	if err := replayed.ApplyJournal(JournalRecord{Op: OpPut, Sealed: s}); err != nil {
		t.Fatal(err)
	}
	if got, err = replayed.GetSealed(s.RefID); err != nil || &got.Ciphertext[0] != &s.Ciphertext[0] {
		t.Errorf("ApplyJournal copied the ciphertext instead of taking it over (err %v)", err)
	}
}

func FuzzSealOpen(f *testing.F) {
	for _, tc := range sealCases(f) {
		f.Add(tc.plain)
	}
	kms, err := hckrypto.NewKMS("tenant-a")
	if err != nil {
		f.Fatal(err)
	}
	lake := NewDataLake(kms, "svc-storage")
	f.Fuzz(func(t *testing.T, plain []byte) {
		s, err := lake.Seal("patient-1", plain, Meta{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := lake.Open(s, "svc-storage")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, plain) {
			t.Fatalf("Open(Seal(x)) returned %d bytes, want %d", len(got), len(plain))
		}
	})
}

func BenchmarkSealOpen(b *testing.B) {
	for _, size := range []struct {
		name string
		obs  int
	}{{"0.7KB", 2}, {"36KB", 150}} {
		plain := bundle(b, 6, size.obs)
		b.Run(size.name, func(b *testing.B) {
			kms, err := hckrypto.NewKMS("tenant-a")
			if err != nil {
				b.Fatal(err)
			}
			lake := NewDataLake(kms, "svc-storage")
			b.SetBytes(int64(len(plain)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := lake.Seal("patient-1", plain, Meta{})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := lake.Open(s, "svc-storage"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
