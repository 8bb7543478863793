// Package attest implements the Attestation Service of Figure 1. It keeps
// golden (approved) PCR values per platform layer, challenges TPMs and
// vTPMs with fresh nonces, verifies quotes, and extends a transitive
// trust model from hardware to hypervisor to guest OS to containers
// (§II-A). It also maintains the approved image-signing keys consulted by
// Image Management ("accepts only those VM images that are signed by an
// approved list of keys managed by an attestation service") and receives
// golden-value updates from the Change Management service (§II-B).
package attest

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"healthcloud/internal/hckrypto"
	"healthcloud/internal/tpm"
)

// Layer identifies one link of the transitive trust chain.
type Layer string

// Trust chain layers, ordered: each layer is only trustworthy if every
// layer below it is.
const (
	LayerHardware   Layer = "hardware"
	LayerHypervisor Layer = "hypervisor"
	LayerGuestOS    Layer = "guest-os"
	LayerContainer  Layer = "container"
)

// chainOrder lists layers from root to leaf.
var chainOrder = []Layer{LayerHardware, LayerHypervisor, LayerGuestOS, LayerContainer}

// LayerPCR maps each trust layer to the PCR that measures it.
var LayerPCR = map[Layer]int{
	LayerHardware:   tpm.PCRBios,
	LayerHypervisor: tpm.PCRHypervisor,
	LayerGuestOS:    tpm.PCRKernel,
	LayerContainer:  tpm.PCRContainer,
}

// Errors returned by this package.
var (
	ErrUnknownTPM      = errors.New("attest: TPM not enrolled")
	ErrNoGoldenValue   = errors.New("attest: no golden value for layer")
	ErrQuoteInvalid    = errors.New("attest: quote signature or nonce invalid")
	ErrMeasurement     = errors.New("attest: measurement does not match golden value")
	ErrUntrustedSigner = errors.New("attest: image signer not on approved list")
	ErrStaleNonce      = errors.New("attest: unknown or already-used nonce")
)

// Service is the attestation authority. The zero value is unusable;
// construct with NewService.
type Service struct {
	mu sync.RWMutex
	// enrolled TPM/vTPM attestation keys, by TPM name. Verifiers carry
	// their own scheme, so mixed-algorithm fleets attest side by side.
	aks map[string]hckrypto.Verifier
	// golden PCR values: tpmName -> layer -> approved PCR value.
	golden map[string]map[Layer][]byte
	// approved image-signing keys by fingerprint.
	imageSigners map[string]hckrypto.Verifier
	// outstanding challenge nonces (one-shot).
	nonces map[string][]byte
	// attestation decisions, for the audit trail.
	history []Decision
}

// Decision records one attestation outcome.
type Decision struct {
	TPMName string
	Layer   Layer
	Trusted bool
	Reason  string
}

// NewService creates an empty attestation service.
func NewService() *Service {
	return &Service{
		aks:          make(map[string]hckrypto.Verifier),
		golden:       make(map[string]map[Layer][]byte),
		imageSigners: make(map[string]hckrypto.Verifier),
		nonces:       make(map[string][]byte),
	}
}

// EnrollTPM registers a TPM's attestation key. In a real deployment this
// happens out of band when hardware is racked (or when a vTPM is created
// by an already-trusted vTPM manager).
func (s *Service) EnrollTPM(name string, ak hckrypto.Verifier) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.aks[name] = ak
	if _, ok := s.golden[name]; !ok {
		s.golden[name] = make(map[Layer][]byte)
	}
}

// SetGoldenValue records the approved PCR value for one layer of one
// platform. Change Management calls this when a change is approved
// ("the CM service accordingly updates the Attestation Service regarding
// the approved changes and their new signatures", §II-B).
func (s *Service) SetGoldenValue(tpmName string, layer Layer, pcrValue []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.aks[tpmName]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownTPM, tpmName)
	}
	s.golden[tpmName][layer] = append([]byte(nil), pcrValue...)
	return nil
}

// Challenge issues a one-shot nonce for a TPM. The caller must have the
// TPM quote against exactly this nonce; reuse is rejected (anti-replay).
func (s *Service) Challenge(tpmName string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.aks[tpmName]; !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTPM, tpmName)
	}
	nonce := []byte(hckrypto.NewUUID())
	s.nonces[tpmName] = nonce
	return append([]byte(nil), nonce...), nil
}

// AttestLayer verifies a quote for a single layer: the signature must be
// valid under the enrolled key, the nonce must match the outstanding
// challenge (and is consumed), and the quoted PCR must equal the golden
// value. The decision is recorded for auditing either way.
func (s *Service) AttestLayer(tpmName string, layer Layer, q *tpm.Quote) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.attestLayerLocked(tpmName, layer, q)
}

func (s *Service) attestLayerLocked(tpmName string, layer Layer, q *tpm.Quote) error {
	record := func(trusted bool, reason string) {
		s.history = append(s.history, Decision{TPMName: tpmName, Layer: layer, Trusted: trusted, Reason: reason})
	}
	ak, ok := s.aks[tpmName]
	if !ok {
		record(false, "unknown TPM")
		return fmt.Errorf("%w: %q", ErrUnknownTPM, tpmName)
	}
	nonce, ok := s.nonces[tpmName]
	if !ok {
		record(false, "no outstanding challenge")
		return ErrStaleNonce
	}
	delete(s.nonces, tpmName) // one-shot
	if !tpm.VerifyQuote(ak, q, nonce) {
		record(false, "bad signature or nonce")
		return ErrQuoteInvalid
	}
	want, ok := s.golden[tpmName][layer]
	if !ok {
		record(false, "no golden value")
		return fmt.Errorf("%w: %s/%s", ErrNoGoldenValue, tpmName, layer)
	}
	pcr := LayerPCR[layer]
	got, ok := q.PCRs[pcr]
	if !ok {
		record(false, "quote missing layer PCR")
		return fmt.Errorf("%w: quote lacks PCR %d", ErrMeasurement, pcr)
	}
	if !bytes.Equal(got, want) {
		record(false, "PCR mismatch")
		return fmt.Errorf("%w: layer %s", ErrMeasurement, layer)
	}
	record(true, "ok")
	return nil
}

// Quoter produces quotes for a chain link; both *tpm.TPM and *tpm.Driver
// satisfy it.
type Quoter interface {
	GenerateQuote(nonce []byte, pcrs []int) (*tpm.Quote, error)
}

var (
	_ Quoter = (*tpm.TPM)(nil)
	_ Quoter = (*tpm.Driver)(nil)
)

// ChainLink pairs a TPM identity with the layer it vouches for.
type ChainLink struct {
	TPMName string
	Layer   Layer
	Quoter  Quoter
}

// AttestChain verifies a full transitive trust chain, root first. It
// stops at the first untrusted link: per the transitive trust model, a
// layer cannot be trusted if any layer beneath it is not.
func (s *Service) AttestChain(links []ChainLink) error {
	pos := make(map[Layer]int, len(chainOrder))
	for i, l := range chainOrder {
		pos[l] = i
	}
	last := -1
	for _, link := range links {
		p, ok := pos[link.Layer]
		if !ok {
			return fmt.Errorf("attest: unknown layer %q", link.Layer)
		}
		if p < last {
			return fmt.Errorf("attest: chain out of order at layer %q", link.Layer)
		}
		last = p
		nonce, err := s.Challenge(link.TPMName)
		if err != nil {
			return fmt.Errorf("attest: challenging %s: %w", link.TPMName, err)
		}
		q, err := link.Quoter.GenerateQuote(nonce, []int{LayerPCR[link.Layer]})
		if err != nil {
			return fmt.Errorf("attest: quoting %s: %w", link.TPMName, err)
		}
		if err := s.AttestLayer(link.TPMName, link.Layer, q); err != nil {
			return fmt.Errorf("attest: chain broken at %s (%s): %w", link.TPMName, link.Layer, err)
		}
	}
	return nil
}

// ApproveImageSigner adds a key to the approved list used by Image
// Management.
func (s *Service) ApproveImageSigner(key hckrypto.Verifier) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.imageSigners[key.Fingerprint()] = key
}

// RevokeImageSigner removes a key from the approved list.
func (s *Service) RevokeImageSigner(fingerprint string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.imageSigners, fingerprint)
}

// VerifyImageSignature checks that an image digest was signed by any
// currently-approved key, returning the signer's fingerprint.
func (s *Service) VerifyImageSignature(imageDigest, sig []byte) (string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for fp, key := range s.imageSigners {
		if hckrypto.VerifyEnvelope(key, imageDigest, sig) {
			return fp, nil
		}
	}
	return "", ErrUntrustedSigner
}

// History returns a copy of all attestation decisions (audit support).
func (s *Service) History() []Decision {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]Decision(nil), s.history...)
}
