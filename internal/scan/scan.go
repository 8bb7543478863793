// Package scan implements the ingestion pipeline's data filtration
// service (§IV-B1): "the ingestion service employs a data filtration
// system to determine if the data contains any malware. If so, the
// filtration services filter out the record" and report it to the
// malware blockchain network. Detection is signature-based — byte
// patterns registered by the malware-management network's peers — plus
// sender risk analytics ("it can also employ analytics in order to
// determine risky senders or risky records").
package scan

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// ErrMalware is returned when a payload matches a signature.
var ErrMalware = errors.New("scan: malware signature matched")

// Signature is one registered byte pattern.
type Signature struct {
	Name     string
	Pattern  []byte
	Severity string // low | medium | high
}

// Finding reports one matched signature.
type Finding struct {
	Signature Signature
	Offset    int
}

// Scanner is the filtration service. The zero value is unusable; create
// with NewScanner.
type Scanner struct {
	mu         sync.RWMutex
	signatures []Signature
	// sender risk analytics
	senderTotal map[string]int
	senderBad   map[string]int
}

// NewScanner creates a scanner preloaded with the given signatures.
func NewScanner(sigs ...Signature) (*Scanner, error) {
	s := &Scanner{
		senderTotal: make(map[string]int),
		senderBad:   make(map[string]int),
	}
	for _, sig := range sigs {
		if err := s.AddSignature(sig); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// AddSignature registers a pattern (the malware blockchain network's
// peers — cloud vendor, software vendors, national vulnerability
// organizations — feed these in).
func (s *Scanner) AddSignature(sig Signature) error {
	if sig.Name == "" || len(sig.Pattern) == 0 {
		return errors.New("scan: signature needs a name and a non-empty pattern")
	}
	switch sig.Severity {
	case "low", "medium", "high":
	default:
		return fmt.Errorf("scan: bad severity %q", sig.Severity)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.signatures = append(s.signatures, sig)
	return nil
}

// SignatureCount returns the number of registered signatures.
func (s *Scanner) SignatureCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.signatures)
}

// Scan checks a payload from a sender. It records the outcome in the
// sender risk statistics and returns ErrMalware with findings when any
// signature matches. The payload passes are made unlocked, against a
// snapshot of the signature set, so concurrent scans do not queue on
// each other; the lock is held only to read the set and to count.
func (s *Scanner) Scan(sender string, payload []byte) ([]Finding, error) {
	s.mu.RLock()
	sigs := s.signatures // AddSignature only appends: this prefix never changes
	s.mu.RUnlock()
	var findings []Finding
	for _, sig := range sigs {
		if off := bytes.Index(payload, sig.Pattern); off >= 0 {
			findings = append(findings, Finding{Signature: sig, Offset: off})
		}
	}
	s.mu.Lock()
	s.senderTotal[sender]++
	if len(findings) > 0 {
		s.senderBad[sender]++
	}
	s.mu.Unlock()
	if len(findings) > 0 {
		return findings, fmt.Errorf("%w: %d finding(s), first %q", ErrMalware, len(findings), findings[0].Signature.Name)
	}
	return nil, nil
}

// SenderRisk returns the fraction of a sender's submissions that carried
// malware, and the sample size.
func (s *Scanner) SenderRisk(sender string) (risk float64, submissions int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	total := s.senderTotal[sender]
	if total == 0 {
		return 0, 0
	}
	return float64(s.senderBad[sender]) / float64(total), total
}

// RiskySenders returns senders whose malware fraction meets the
// threshold, given at least minSubmissions observations, sorted by
// descending risk then name.
func (s *Scanner) RiskySenders(threshold float64, minSubmissions int) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	type ranked struct {
		name string
		risk float64
	}
	var out []ranked
	for sender, total := range s.senderTotal {
		if total < minSubmissions {
			continue
		}
		risk := float64(s.senderBad[sender]) / float64(total)
		if risk >= threshold {
			out = append(out, ranked{sender, risk})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].risk != out[j].risk {
			return out[i].risk > out[j].risk
		}
		return out[i].name < out[j].name
	})
	names := make([]string, len(out))
	for i, r := range out {
		names[i] = r.name
	}
	return names
}

// DefaultSignatures returns a starter signature set for tests and
// examples (EICAR-style markers, not real malware).
func DefaultSignatures() []Signature {
	return []Signature{
		{Name: "eicar-test", Pattern: []byte(`X5O!P%@AP[4\PZX54(P^)7CC)7}$EICAR`), Severity: "high"},
		{Name: "script-injection", Pattern: []byte("<script>evil"), Severity: "medium"},
		{Name: "shell-dropper", Pattern: []byte("curl http://malware"), Severity: "high"},
	}
}
