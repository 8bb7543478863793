package hckrypto

import (
	"crypto/cipher"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"sync"
)

// KMS is the platform's single-tenant key-management system (§IV-B1).
// The paper requires it to be "a single-tenant isolated system that is
// dedicated only to a single customer", ideally hardware-backed; here it
// is an in-process substitute with the same API surface: data-key
// generation under a wrapping master key, need-to-know access control,
// key rotation, and crypto-shredding (destroying a subject's keys renders
// every ciphertext under them unrecoverable, implementing GDPR
// right-to-forget via "encryption-based record deletion", §IV-B1).
//
// The zero value is not usable; construct with NewKMS.
type KMS struct {
	tenant string

	mu        sync.RWMutex
	masterGen uint32
	masters   map[uint32]SymmetricKey // generation -> master key
	aeads     map[uint32]cipher.AEAD  // generation -> cached wrapping AEAD
	keys      map[string]*managedKey  // key id -> record
	acl       map[string]map[string]bool
	shredded  map[string]bool
	nextID    uint64
}

type managedKey struct {
	id      string
	subject string // owning subject (patient, tenant service, ...)
	gen     uint32 // master generation that wraps it
	wrapped []byte // data key encrypted under masters[gen]
}

// KMS errors.
var (
	ErrKeyNotFound  = errors.New("hckrypto: key not found")
	ErrKeyShredded  = errors.New("hckrypto: key crypto-shredded")
	ErrAccessDenied = errors.New("hckrypto: access to key denied")
)

// NewKMS creates a KMS dedicated to one tenant, with a fresh random
// master key at generation 1.
func NewKMS(tenant string) (*KMS, error) {
	master, err := NewSymmetricKey()
	if err != nil {
		return nil, err
	}
	// The master-key AEAD is cached per generation: every data-key wrap
	// and unwrap (one of each per record sealed or opened) reuses the key
	// schedule instead of re-deriving it, which is the bulk of the
	// allocation cost on the Seal/Open hot path.
	aead, err := NewAEAD(master)
	if err != nil {
		return nil, err
	}
	return &KMS{
		tenant:    tenant,
		masterGen: 1,
		masters:   map[uint32]SymmetricKey{1: master},
		aeads:     map[uint32]cipher.AEAD{1: aead},
		keys:      make(map[string]*managedKey),
		acl:       make(map[string]map[string]bool),
		shredded:  make(map[string]bool),
	}, nil
}

// Tenant returns the tenant this KMS is dedicated to.
func (k *KMS) Tenant() string { return k.tenant }

// CreateDataKey mints a fresh data key bound to subject (e.g. a patient
// reference ID, so all of a patient's records can later be shredded
// together). principal is granted access automatically. The plaintext key
// is returned once; the KMS stores only the wrapped form.
func (k *KMS) CreateDataKey(subject, principal string) (string, SymmetricKey, error) {
	dk, err := NewSymmetricKey()
	if err != nil {
		return "", nil, err
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	k.nextID++
	id := fmt.Sprintf("key-%s-%d", k.tenant, k.nextID)
	wrapped, err := SealAEAD(k.aeads[k.masterGen], dk, []byte(id))
	if err != nil {
		return "", nil, fmt.Errorf("hckrypto: wrapping data key: %w", err)
	}
	k.keys[id] = &managedKey{id: id, subject: subject, gen: k.masterGen, wrapped: wrapped}
	k.acl[id] = map[string]bool{principal: true}
	return id, dk, nil
}

// Grant allows principal to unwrap the key. Grants are how the paper's
// "key management service ... ensures that authorized components,
// services and identities have access to the appropriate set of keys".
func (k *KMS) Grant(keyID, principal string) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if _, ok := k.keys[keyID]; !ok {
		return ErrKeyNotFound
	}
	k.acl[keyID][principal] = true
	return nil
}

// Revoke removes principal's access to the key.
func (k *KMS) Revoke(keyID, principal string) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if _, ok := k.keys[keyID]; !ok {
		return ErrKeyNotFound
	}
	delete(k.acl[keyID], principal)
	return nil
}

// UnwrapDataKey returns the plaintext data key if principal is authorized
// and the key has not been shredded.
func (k *KMS) UnwrapDataKey(keyID, principal string) (SymmetricKey, error) {
	k.mu.RLock()
	defer k.mu.RUnlock()
	if k.shredded[keyID] {
		return nil, ErrKeyShredded
	}
	mk, ok := k.keys[keyID]
	if !ok {
		return nil, ErrKeyNotFound
	}
	if !k.acl[keyID][principal] {
		return nil, ErrAccessDenied
	}
	aead, ok := k.aeads[mk.gen]
	if !ok {
		return nil, ErrKeyShredded
	}
	dk, err := OpenAEAD(aead, mk.wrapped, []byte(keyID))
	if err != nil {
		return nil, fmt.Errorf("hckrypto: unwrapping data key: %w", err)
	}
	return dk, nil
}

// RotateMaster creates a new master-key generation and rewraps every live
// data key under it. Old generations are discarded, so a leaked old
// master is useless afterwards.
func (k *KMS) RotateMaster() error {
	newMaster, err := NewSymmetricKey()
	if err != nil {
		return err
	}
	newAEAD, err := NewAEAD(newMaster)
	if err != nil {
		return err
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	newGen := k.masterGen + 1
	for id, mk := range k.keys {
		if k.shredded[id] {
			continue
		}
		old, ok := k.aeads[mk.gen]
		if !ok {
			continue
		}
		dk, err := OpenAEAD(old, mk.wrapped, []byte(id))
		if err != nil {
			return fmt.Errorf("hckrypto: rotate unwrap %s: %w", id, err)
		}
		rewrapped, err := SealAEAD(newAEAD, dk, []byte(id))
		if err != nil {
			return fmt.Errorf("hckrypto: rotate rewrap %s: %w", id, err)
		}
		zero(dk)
		mk.wrapped = rewrapped
		mk.gen = newGen
	}
	k.masters = map[uint32]SymmetricKey{newGen: newMaster}
	k.aeads = map[uint32]cipher.AEAD{newGen: newAEAD}
	k.masterGen = newGen
	return nil
}

// Shred destroys a single key. Ciphertexts under it become permanently
// unrecoverable (secure deletion, §IV-B1).
func (k *KMS) Shred(keyID string) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	mk, ok := k.keys[keyID]
	if !ok {
		return ErrKeyNotFound
	}
	zero(mk.wrapped)
	mk.wrapped = nil
	k.shredded[keyID] = true
	return nil
}

// ShredSubject destroys every key belonging to subject, implementing
// "deletion of data relevant to a given patient from all parts of the
// system" for GDPR right-to-forget. It returns the number of keys shredded.
func (k *KMS) ShredSubject(subject string) int {
	k.mu.Lock()
	defer k.mu.Unlock()
	n := 0
	for id, mk := range k.keys {
		if mk.subject == subject && !k.shredded[id] {
			zero(mk.wrapped)
			mk.wrapped = nil
			k.shredded[id] = true
			n++
		}
	}
	return n
}

// Shredded reports whether a key has been destroyed.
func (k *KMS) Shredded(keyID string) bool {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return k.shredded[keyID]
}

// KeyCount returns the number of live (non-shredded) keys.
func (k *KMS) KeyCount() int {
	k.mu.RLock()
	defer k.mu.RUnlock()
	n := 0
	for id := range k.keys {
		if !k.shredded[id] {
			n++
		}
	}
	return n
}

// NewUUID returns a random RFC-4122-shaped identifier. The ingestion
// pipeline labels records with "a random UUID or a pseudo-random number"
// before they are referenced on blockchain networks (§IV-B1).
func NewUUID() string {
	var b [16]byte
	if _, err := io.ReadFull(rand.Reader, b[:]); err != nil {
		// rand.Reader failing is unrecoverable for a crypto platform;
		// fall back to a counter-free zero UUID rather than panicking.
		return "00000000-0000-4000-8000-000000000000"
	}
	b[6] = (b[6] & 0x0f) | 0x40 // version 4
	b[8] = (b[8] & 0x3f) | 0x80 // variant 10
	return fmt.Sprintf("%x-%x-%x-%x-%x", b[0:4], b[4:6], b[6:8], b[8:10], b[10:16])
}

func zero(b []byte) {
	for i := range b {
		b[i] = 0
	}
}
