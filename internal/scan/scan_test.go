package scan

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

func newTestScanner(t *testing.T) *Scanner {
	t.Helper()
	s, err := NewScanner(DefaultSignatures()...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCleanPayloadPasses(t *testing.T) {
	s := newTestScanner(t)
	findings, err := s.Scan("hospital-a", []byte(`{"resourceType":"Patient"}`))
	if err != nil || findings != nil {
		t.Errorf("clean payload: %v, %v", findings, err)
	}
}

func TestMalwareDetected(t *testing.T) {
	s := newTestScanner(t)
	payload := []byte(`prefix <script>evil suffix`)
	findings, err := s.Scan("hospital-a", payload)
	if !errors.Is(err, ErrMalware) {
		t.Fatalf("got %v, want ErrMalware", err)
	}
	if len(findings) != 1 || findings[0].Signature.Name != "script-injection" {
		t.Errorf("findings = %+v", findings)
	}
	if findings[0].Offset != 7 {
		t.Errorf("offset = %d, want 7", findings[0].Offset)
	}
}

func TestMultipleFindings(t *testing.T) {
	s := newTestScanner(t)
	payload := []byte(`<script>evil and curl http://malware`)
	findings, err := s.Scan("x", payload)
	if !errors.Is(err, ErrMalware) {
		t.Fatal(err)
	}
	if len(findings) != 2 {
		t.Errorf("findings = %d, want 2", len(findings))
	}
}

func TestSignatureValidation(t *testing.T) {
	s, _ := NewScanner()
	if err := s.AddSignature(Signature{Name: "", Pattern: []byte("x"), Severity: "low"}); err == nil {
		t.Error("unnamed signature accepted")
	}
	if err := s.AddSignature(Signature{Name: "n", Pattern: nil, Severity: "low"}); err == nil {
		t.Error("empty pattern accepted")
	}
	if err := s.AddSignature(Signature{Name: "n", Pattern: []byte("x"), Severity: "catastrophic"}); err == nil {
		t.Error("bad severity accepted")
	}
	if _, err := NewScanner(Signature{}); err == nil {
		t.Error("NewScanner accepted invalid signature")
	}
	if s.SignatureCount() != 0 {
		t.Errorf("count = %d", s.SignatureCount())
	}
}

func TestSenderRiskAnalytics(t *testing.T) {
	s := newTestScanner(t)
	// hospital-a: 1 bad out of 4; shady-vendor: 3 bad out of 3.
	for i := 0; i < 3; i++ {
		s.Scan("hospital-a", []byte("clean"))
	}
	s.Scan("hospital-a", []byte("<script>evil"))
	for i := 0; i < 3; i++ {
		s.Scan("shady-vendor", []byte("curl http://malware"))
	}
	risk, n := s.SenderRisk("hospital-a")
	if n != 4 || risk != 0.25 {
		t.Errorf("hospital-a risk = %f over %d", risk, n)
	}
	risk, n = s.SenderRisk("shady-vendor")
	if n != 3 || risk != 1.0 {
		t.Errorf("shady-vendor risk = %f over %d", risk, n)
	}
	if risk, n := s.SenderRisk("unknown"); risk != 0 || n != 0 {
		t.Errorf("unknown sender = %f, %d", risk, n)
	}
	risky := s.RiskySenders(0.5, 2)
	if len(risky) != 1 || risky[0] != "shady-vendor" {
		t.Errorf("risky = %v", risky)
	}
	// min-submission gate hides low-volume senders.
	s2 := newTestScanner(t)
	s2.Scan("one-shot", []byte("<script>evil"))
	if got := s2.RiskySenders(0.5, 2); len(got) != 0 {
		t.Errorf("low-volume sender surfaced: %v", got)
	}
}

func TestRiskySendersOrdering(t *testing.T) {
	s := newTestScanner(t)
	// b-sender: 100%, a-sender: 100% (tie broken by name), c-sender: 50%.
	s.Scan("b-sender", []byte("<script>evil"))
	s.Scan("b-sender", []byte("<script>evil"))
	s.Scan("a-sender", []byte("<script>evil"))
	s.Scan("a-sender", []byte("<script>evil"))
	s.Scan("c-sender", []byte("<script>evil"))
	s.Scan("c-sender", []byte("clean"))
	got := s.RiskySenders(0.4, 2)
	want := []string{"a-sender", "b-sender", "c-sender"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("order = %v, want %v", got, want)
	}
}

// Scans run unlocked against a snapshot of the signature set, so this
// drives them from several goroutines while signatures are still being
// added (run under -race): counts and findings must stay exact.
func TestConcurrentScans(t *testing.T) {
	s := newTestScanner(t)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			sig := Signature{Name: fmt.Sprintf("late-%d", i), Pattern: []byte(fmt.Sprintf("absent-%d", i)), Severity: "low"}
			if err := s.AddSignature(sig); err != nil {
				t.Error(err)
			}
		}
	}()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sender := fmt.Sprintf("s-%d", g)
			for i := 0; i < 100; i++ {
				if i%5 != 0 {
					if f, err := s.Scan(sender, []byte("clean")); err != nil || f != nil {
						t.Errorf("%s clean scan: findings=%v err=%v", sender, f, err)
					}
					continue
				}
				f, err := s.Scan(sender, []byte("xx<script>evil"))
				if !errors.Is(err, ErrMalware) || len(f) != 1 || f[0].Signature.Name != "script-injection" || f[0].Offset != 2 {
					t.Errorf("%s malware scan: findings=%v err=%v", sender, f, err)
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < 8; g++ {
		risk, n := s.SenderRisk(fmt.Sprintf("s-%d", g))
		if n != 100 || risk != 0.2 {
			t.Errorf("s-%d: risk=%f n=%d", g, risk, n)
		}
	}
	if n := s.SignatureCount(); n != len(DefaultSignatures())+50 {
		t.Errorf("signatures = %d, want %d", n, len(DefaultSignatures())+50)
	}
}
