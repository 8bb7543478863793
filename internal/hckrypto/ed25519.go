package hckrypto

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"crypto/x509"
	"encoding/pem"
	"fmt"
)

// Ed25519Key is an Ed25519 signing identity — the platform's runtime
// default scheme. Signing is ~30× cheaper than RSA-2048-PSS and
// verification is allocation-free, which is what makes per-transaction
// endorsement affordable at ledger scale (experiment E22).
type Ed25519Key struct {
	priv ed25519.PrivateKey
}

// Ed25519VerifyKey is the public half of an Ed25519Key.
type Ed25519VerifyKey struct {
	pub ed25519.PublicKey
}

// NewEd25519Key generates a fresh Ed25519 signing key.
func NewEd25519Key() (*Ed25519Key, error) {
	_, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("hckrypto: generating ed25519 key: %w", err)
	}
	return &Ed25519Key{priv: priv}, nil
}

// NewEd25519KeyFromSeed derives a key deterministically from a 32-byte
// seed (golden fixtures and fuzz corpora need reproducible identities).
func NewEd25519KeyFromSeed(seed []byte) (*Ed25519Key, error) {
	if len(seed) != ed25519.SeedSize {
		return nil, fmt.Errorf("hckrypto: ed25519 seed must be %d bytes", ed25519.SeedSize)
	}
	return &Ed25519Key{priv: ed25519.NewKeyFromSeed(seed)}, nil
}

// Scheme returns SchemeEd25519.
func (k *Ed25519Key) Scheme() Scheme { return SchemeEd25519 }

// Public returns the verification half of the key.
func (k *Ed25519Key) Public() *Ed25519VerifyKey {
	return &Ed25519VerifyKey{pub: k.priv.Public().(ed25519.PublicKey)}
}

// Verifier returns the verification half as the generic interface.
func (k *Ed25519Key) Verifier() Verifier { return k.Public() }

// Sign produces a raw Ed25519 signature over data (Ed25519 signs the
// message directly; no pre-hashing).
func (k *Ed25519Key) Sign(data []byte) ([]byte, error) {
	return ed25519.Sign(k.priv, data), nil
}

// Scheme returns SchemeEd25519.
func (v *Ed25519VerifyKey) Scheme() Scheme { return SchemeEd25519 }

// Verify reports whether sig is a valid Ed25519 signature by the key's
// owner. Allocation-free: this is the endorsement verify hot path, and
// the zero-allocs guard test pins it.
func (v *Ed25519VerifyKey) Verify(data, sig []byte) bool {
	return len(sig) == ed25519.SignatureSize && ed25519.Verify(v.pub, data, sig)
}

// Fingerprint returns a stable hex identifier for the public key, in the
// same PKIX-digest format the RSA keys use.
func (v *Ed25519VerifyKey) Fingerprint() string {
	der, err := x509.MarshalPKIXPublicKey(v.pub)
	if err != nil {
		return ""
	}
	sum := sha256.Sum256(der)
	return fmt.Sprintf("%x", sum[:8])
}

// MarshalPEM encodes the public key in PEM form for distribution
// (ParseVerifierPEM round-trips it).
func (v *Ed25519VerifyKey) MarshalPEM() ([]byte, error) {
	der, err := x509.MarshalPKIXPublicKey(v.pub)
	if err != nil {
		return nil, fmt.Errorf("hckrypto: marshal public key: %w", err)
	}
	return pem.EncodeToMemory(&pem.Block{Type: "PUBLIC KEY", Bytes: der}), nil
}
