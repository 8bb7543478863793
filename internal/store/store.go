// Package store implements the platform's trusted back-end storage
// (§II-B): a Data Lake of envelope-encrypted records, the secure
// temporary staging area uploads land in, and the reference-id ↔
// identity mapping kept in metadata ("the data is de-identified and
// stored in the backend storage system (Data Lake) with a reference-id,
// and the reference-id to identity the mapping is stored in the
// metadata").
//
// Records are deflated, then encrypted with per-record data keys from
// the KMS, bound to a subject (patient), so GDPR right-to-forget is
// implemented by crypto-shredding the subject's keys (§IV-B1
// "encryption-based record deletion").
package store

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"healthcloud/internal/faultinject"
	"healthcloud/internal/hckrypto"
	"healthcloud/internal/telemetry"
)

// Fault-point names this package consults (see internal/faultinject).
// A sharded lake rescopes the per-shard points via SetFaultScope, so
// "shardlake.shard-1.put" can fail while "shardlake.shard-0.put" serves.
const (
	FaultLakePut    = "store.lake.put"
	FaultLakeGet    = "store.lake.get"
	FaultLakePing   = "store.lake.ping"
	FaultStagingPut = "store.staging.put"
)

// Errors returned by this package.
var (
	ErrNotFound = errors.New("store: record not found")
	ErrDeleted  = errors.New("store: record securely deleted")
	ErrIdentity = errors.New("store: identity mapping access denied")
)

// Meta describes a stored record. Tags carry non-PHI attributes only.
type Meta struct {
	ContentType string            `json:"content_type"`
	Tenant      string            `json:"tenant"`
	Group       string            `json:"group,omitempty"`
	CreatedAt   time.Time         `json:"created_at"`
	Tags        map[string]string `json:"tags,omitempty"`
}

// Lake is the Data Lake surface the rest of the platform programs
// against: the single-node *DataLake implements it directly, and the
// sharded internal/shardlake.Lake implements it over N DataLake shards,
// so ingest, the export path, caching and the health prober swap
// between them via core.Config.Shards without code changes.
type Lake interface {
	Put(subject string, plaintext []byte, meta Meta) (string, error)
	Get(refID, principal string) ([]byte, error)
	Grant(refID, principal string) error
	Meta(refID string) (Meta, error)
	SecureDelete(refID string) error
	List(tenantName, group string) []string
	Count() int
	Ping() error
}

// Sealed is one envelope-encrypted record in transportable form: the
// ciphertext plus the KMS key id that unwraps it, no plaintext and no
// key material. Because every shard of a sharded lake hangs off the
// same KMS, a Sealed record can be installed verbatim on any replica —
// replication, read-repair, hinted handoff and rebalancing all move
// Sealed records, never plaintext.
//
// Ciphertext is immutable after Seal: PutSealed installs the slice as-is,
// so every replica of a record (and any hint queued for it) shares one
// backing array. Nothing may write to those bytes afterwards; deletion
// shreds the key and drops the reference.
type Sealed struct {
	RefID      string `json:"ref_id"`
	KeyID      string `json:"key_id"`
	Ciphertext []byte `json:"ciphertext,omitempty"`
	Meta       Meta   `json:"meta"`
	Deleted    bool   `json:"deleted"`
}

type record struct {
	refID      string
	keyID      string
	ciphertext []byte
	meta       Meta
	deleted    bool
}

// DataLake is the encrypted record store. Construct with NewDataLake.
type DataLake struct {
	kms       *hckrypto.KMS
	principal string // the storage service's own KMS identity
	faults    *faultinject.Registry
	met       *lakeMetrics
	// Per-instance fault-point names (SetFaultScope rescopes them so
	// each shard of a sharded lake can be broken independently).
	ptPut, ptGet, ptPing string
	// svcTime models the serial service capacity of one storage node:
	// when set, every storage operation holds the node's "device" for
	// svcTime, so shard-scaling experiments measure a real bottleneck
	// instead of an uncontended map insert. Zero (the default) disables
	// the model entirely. Atomic: experiments retune it (E24 drops it to
	// drain a backlog) while pipeline workers are mid-operation.
	svcTime atomic.Int64 // nanoseconds
	svcMu   sync.Mutex
	// journal, when set, persists every mutation write-ahead (see
	// journal.go); nil keeps the lake purely in-memory.
	journal Journal

	mu      sync.RWMutex
	records map[string]*record
}

var _ Lake = (*DataLake)(nil)

// lakeMetrics instruments the lake; nil disables it.
type lakeMetrics struct {
	put, get, ping   *telemetry.Histogram
	putErrs, getErrs *telemetry.Counter
}

// NewDataLake creates a lake that encrypts under keys from kms, acting
// as the given KMS principal.
func NewDataLake(kms *hckrypto.KMS, principal string) *DataLake {
	return &DataLake{
		kms: kms, principal: principal, records: make(map[string]*record),
		ptPut: FaultLakePut, ptGet: FaultLakeGet, ptPing: FaultLakePing,
	}
}

// SetFaults installs a fault-injection registry (nil disables). Call
// before the lake is shared across goroutines.
func (d *DataLake) SetFaults(r *faultinject.Registry) { d.faults = r }

// SetFaultScope renames the lake's fault points from the default
// "store.lake.*" to scope+".put", ".get" and ".ping", so each shard of
// a sharded lake exposes its own points (internal/shardlake scopes
// shard i as "shardlake.shard-i"). Call before the lake is shared.
func (d *DataLake) SetFaultScope(scope string) {
	d.ptPut, d.ptGet, d.ptPing = scope+".put", scope+".get", scope+".ping"
}

// SetServiceTime enables the storage-node capacity model: each Put/Get
// (sealed variants included) occupies the node serially for dur. Zero
// restores the default free-of-charge in-memory behavior.
func (d *DataLake) SetServiceTime(dur time.Duration) { d.svcTime.Store(int64(dur)) }

// serviceDelay charges one operation's service time against the node's
// single "device" (held exclusively, like a disk spindle or a saturated
// NIC), making per-shard throughput finite when the model is on.
func (d *DataLake) serviceDelay() {
	dur := time.Duration(d.svcTime.Load())
	if dur <= 0 {
		return
	}
	d.svcMu.Lock()
	time.Sleep(dur)
	d.svcMu.Unlock()
}

// SetTelemetry attaches put/get/ping latency histograms and error
// counters to the registry (nil disables). Call before the lake is
// shared.
func (d *DataLake) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		d.met = nil
		return
	}
	d.met = &lakeMetrics{
		put:     reg.Histogram("lake_put_seconds"),
		get:     reg.Histogram("lake_get_seconds"),
		ping:    reg.Histogram("lake_ping_seconds"),
		putErrs: reg.Counter("lake_put_errors_total"),
		getErrs: reg.Counter("lake_get_errors_total"),
	}
}

// Seal deflates plaintext, encrypts the result under a fresh
// per-record data key bound to subject and returns the sealed record
// without storing it — the coordinator half of a replicated write. No
// fault point is consulted: sealing is coordinator CPU plus KMS work,
// not shard I/O.
//
// Every record is deflate-then-AEAD, with no format marker: the KMS is
// process-local, so every record this process can open was sealed by
// it. Deflating before encryption is what shrinks the ciphertext; the
// AEAD tag covers the deflated stream, so no checksum is needed.
func (d *DataLake) Seal(subject string, plaintext []byte, meta Meta) (Sealed, error) {
	keyID, dk, err := d.kms.CreateDataKey(subject, d.principal)
	if err != nil {
		return Sealed{}, fmt.Errorf("store: creating data key: %w", err)
	}
	refID := "ref-" + hckrypto.NewUUID()
	z := deflaters.Get().(*deflater)
	z.buf.Reset()
	z.w.Reset(&z.buf)
	_, _ = z.w.Write(plaintext) // writes to a bytes.Buffer cannot fail
	_ = z.w.Close()
	ct, err := hckrypto.EncryptGCM(dk, z.buf.Bytes(), []byte(refID))
	deflaters.Put(z)
	if err != nil {
		return Sealed{}, fmt.Errorf("store: encrypting record: %w", err)
	}
	if meta.CreatedAt.IsZero() {
		meta.CreatedAt = time.Now().UTC()
	}
	return Sealed{RefID: refID, KeyID: keyID, Ciphertext: ct, Meta: meta}, nil
}

// Open decrypts a sealed record on behalf of principal using this
// lake's KMS and inflates it — the coordinator half of a replicated
// read, after quorum resolution picked the authoritative copy, and the
// tail of Get. Like Seal it consults no fault point. Only bytes that
// passed AEAD authentication, that is bytes Seal deflated, reach the
// inflater.
func (d *DataLake) Open(s Sealed, principal string) ([]byte, error) {
	if s.Deleted {
		return nil, fmt.Errorf("%w: %s", ErrDeleted, s.RefID)
	}
	dk, err := d.kms.UnwrapDataKey(s.KeyID, principal)
	if errors.Is(err, hckrypto.ErrKeyShredded) {
		// A shredded key is a deletion, tombstone or not.
		return nil, fmt.Errorf("%w: %s", ErrDeleted, s.RefID)
	}
	if err != nil {
		return nil, fmt.Errorf("store: unwrapping key for %s: %w", s.RefID, err)
	}
	zt, err := hckrypto.DecryptGCM(dk, s.Ciphertext, []byte(s.RefID))
	if err != nil {
		return nil, fmt.Errorf("store: decrypting %s: %w", s.RefID, err)
	}
	z := inflaters.Get().(*inflater)
	defer inflaters.Put(z)
	z.src.Reset(zt)
	if err := z.r.(flate.Resetter).Reset(&z.src, nil); err != nil {
		return nil, fmt.Errorf("store: inflating %s: %w", s.RefID, err)
	}
	z.out.Reset()
	if _, err := z.out.ReadFrom(z.r); err != nil {
		return nil, fmt.Errorf("store: inflating %s: %w", s.RefID, err)
	}
	return bytes.Clone(z.out.Bytes()), nil
}

// Compressor state is large (a BestSpeed flate.Writer allocates about
// 1.2 MB, a reader about 40 KB), so it is pooled rather than built per
// record. Open inflates into the pooled buffer and returns an exact-size
// copy, so a caller never holds a grown buffer's spare capacity.
type deflater struct {
	buf bytes.Buffer
	w   *flate.Writer
}

type inflater struct {
	src bytes.Reader
	r   io.ReadCloser // also a flate.Resetter
	out bytes.Buffer
}

var (
	deflaters = sync.Pool{New: func() any {
		w, _ := flate.NewWriter(nil, flate.BestSpeed) // errors only on a bad level
		return &deflater{w: w}
	}}
	inflaters = sync.Pool{New: func() any {
		return &inflater{r: flate.NewReader(bytes.NewReader(nil))}
	}}
)

// Put encrypts plaintext under a fresh per-record data key bound to
// subject and stores it, returning the reference ID. The plaintext never
// persists; the data key lives only in the KMS.
func (d *DataLake) Put(subject string, plaintext []byte, meta Meta) (string, error) {
	if m := d.met; m != nil {
		defer m.put.ObserveSince(m.put.Start())
	}
	if err := d.faults.Check(d.ptPut); err != nil {
		if m := d.met; m != nil {
			m.putErrs.Inc()
		}
		return "", fmt.Errorf("store: %w", err)
	}
	s, err := d.Seal(subject, plaintext, meta)
	if err != nil {
		return "", err
	}
	d.serviceDelay()
	wait, err := d.install(s)
	if err != nil {
		return "", err
	}
	if wait != nil {
		if err := wait(); err != nil {
			return "", err
		}
	}
	return s.RefID, nil
}

// PutSealed installs a sealed record verbatim — the replication,
// read-repair, hinted-handoff and rebalance write path. It is an
// idempotent upsert with one invariant: a tombstone already present can
// never be overwritten by a live copy (deletion wins, so a late hint
// cannot resurrect a securely-deleted record).
func (d *DataLake) PutSealed(s Sealed) error {
	if m := d.met; m != nil {
		defer m.put.ObserveSince(m.put.Start())
	}
	if err := d.faults.Check(d.ptPut); err != nil {
		if m := d.met; m != nil {
			m.putErrs.Inc()
		}
		return fmt.Errorf("store: %w", err)
	}
	d.serviceDelay()
	d.mu.Lock()
	if existing, ok := d.records[s.RefID]; ok && existing.deleted {
		d.mu.Unlock()
		return nil
	}
	wait, err := d.stageJournal(JournalRecord{Op: OpPut, Sealed: s})
	if err != nil {
		d.mu.Unlock()
		return fmt.Errorf("store: journaling record: %w", err)
	}
	d.records[s.RefID] = &record{
		refID: s.RefID, keyID: s.KeyID, ciphertext: s.Ciphertext,
		meta: s.Meta, deleted: s.Deleted,
	}
	d.mu.Unlock()
	if wait != nil {
		if err := wait(); err != nil {
			return fmt.Errorf("store: journaling record: %w", err)
		}
	}
	return nil
}

// GetSealed returns a record in sealed form, tombstones included — the
// replica-side read that quorum resolution, repair and rebalancing are
// built from. It pays the same fault point as Get, so a downed shard
// fails sealed reads too. The returned Ciphertext shares the stored
// backing array (see Sealed): callers must not write to it.
func (d *DataLake) GetSealed(refID string) (Sealed, error) {
	if err := d.faults.Check(d.ptGet); err != nil {
		if m := d.met; m != nil {
			m.getErrs.Inc()
		}
		return Sealed{}, fmt.Errorf("store: %w", err)
	}
	d.serviceDelay()
	d.mu.RLock()
	defer d.mu.RUnlock()
	rec, ok := d.records[refID]
	if !ok {
		return Sealed{}, fmt.Errorf("%w: %s", ErrNotFound, refID)
	}
	return rec.sealed(), nil
}

func (r *record) sealed() Sealed {
	return Sealed{RefID: r.refID, KeyID: r.keyID, Ciphertext: r.ciphertext, Meta: r.meta, Deleted: r.deleted}
}

// install stores a sealed record, replacing any existing copy. The
// journal frame is staged under the mutex (write-ahead, in apply
// order); the returned wait — to be called after unlock — blocks until
// the frame is durable, so the record is only acknowledged once it
// would survive a crash.
func (d *DataLake) install(s Sealed) (func() error, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	wait, err := d.stageJournal(JournalRecord{Op: OpPut, Sealed: s})
	if err != nil {
		return nil, fmt.Errorf("store: journaling record: %w", err)
	}
	d.records[s.RefID] = &record{
		refID: s.RefID, keyID: s.KeyID, ciphertext: s.Ciphertext,
		meta: s.Meta, deleted: s.Deleted,
	}
	return wait, nil
}

// Get decrypts a record on behalf of principal. The KMS enforces
// need-to-know: the principal must hold a grant on the record's key.
func (d *DataLake) Get(refID, principal string) ([]byte, error) {
	if m := d.met; m != nil {
		defer m.get.ObserveSince(m.get.Start())
	}
	if err := d.faults.Check(d.ptGet); err != nil {
		if m := d.met; m != nil {
			m.getErrs.Inc()
		}
		return nil, fmt.Errorf("store: %w", err)
	}
	d.serviceDelay()
	// Copy the record out under the lock: SecureDelete rewrites its
	// fields in place.
	d.mu.RLock()
	var s Sealed
	stored, ok := d.records[refID]
	if ok {
		s = stored.sealed()
	}
	d.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, refID)
	}
	return d.Open(s, principal)
}

// Grant allows another principal to read a record: a KMS key grant,
// held in memory and journaled nowhere (an export's durable record is
// its ledger event).
func (d *DataLake) Grant(refID, principal string) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	rec, ok := d.records[refID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, refID)
	}
	return d.kms.Grant(rec.keyID, principal)
}

// Meta returns a record's metadata (no key material, no plaintext).
func (d *DataLake) Meta(refID string) (Meta, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	rec, ok := d.records[refID]
	if !ok {
		return Meta{}, fmt.Errorf("%w: %s", ErrNotFound, refID)
	}
	return rec.meta, nil
}

// SecureDelete crypto-shreds one record: its data key is destroyed —
// that is the deletion, no copy of the ciphertext anywhere can be opened
// again — and this lake drops its reference to the ciphertext. The bytes
// are not zeroed in place: they are shared with the record's other
// replicas (see Sealed) and the journal keeps them on disk until
// compaction regardless. The tombstone remains so audits can see a
// record existed.
func (d *DataLake) SecureDelete(refID string) error {
	d.mu.Lock()
	rec, ok := d.records[refID]
	if !ok {
		d.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotFound, refID)
	}
	if rec.deleted {
		d.mu.Unlock()
		return nil
	}
	if err := d.kms.Shred(rec.keyID); err != nil {
		d.mu.Unlock()
		return fmt.Errorf("store: shredding key: %w", err)
	}
	// The key is already shredded (that durability belongs to the
	// external KMS), so the tombstone is journaled write-ahead of the
	// in-memory transition and the deletion acked only once durable.
	wait, err := d.stageJournal(tombstoneRecord(rec))
	if err != nil {
		d.mu.Unlock()
		return fmt.Errorf("store: journaling tombstone: %w", err)
	}
	rec.ciphertext = nil
	rec.deleted = true
	d.mu.Unlock()
	if wait != nil {
		if err := wait(); err != nil {
			return fmt.Errorf("store: journaling tombstone: %w", err)
		}
	}
	return nil
}

// List returns the reference IDs matching the tenant/group filter
// (empty strings match everything), sorted, excluding deleted records.
func (d *DataLake) List(tenantName, group string) []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var out []string
	for id, rec := range d.records {
		if rec.deleted {
			continue
		}
		if tenantName != "" && rec.meta.Tenant != tenantName {
			continue
		}
		if group != "" && rec.meta.Group != group {
			continue
		}
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Ping reports whether the lake's read and write paths are currently
// serviceable, consulting its own ping fault point plus the same points
// Put/Get do, without creating or touching any record — the health
// prober's storage check. The dedicated ping point lets chaos tests
// fail health probes independently of writes (and vice versa); the
// latency histogram makes slow-probe behavior observable.
func (d *DataLake) Ping() error {
	if m := d.met; m != nil {
		defer m.ping.ObserveSince(m.ping.Start())
	}
	if err := d.faults.Check(d.ptPing); err != nil {
		return fmt.Errorf("store: lake probe path: %w", err)
	}
	if err := d.faults.Check(d.ptPut); err != nil {
		return fmt.Errorf("store: lake write path: %w", err)
	}
	if err := d.faults.Check(d.ptGet); err != nil {
		return fmt.Errorf("store: lake read path: %w", err)
	}
	return nil
}

// Refs lists every reference ID the lake holds — tombstones included,
// sorted — the rebalancer's enumeration (List excludes deleted records
// and filters by tenant; a migration must move tombstones too, or a
// resurrected replica could undo a secure deletion).
func (d *DataLake) Refs() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]string, 0, len(d.records))
	for id := range d.records {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Evict removes a record outright without touching its data key — the
// rebalancer's cleanup once an object's placement moved off this shard.
// Not a secure deletion: the key survives and the object lives on its
// new shards.
// Best-effort on the journal: if the evict frame is lost to a crash,
// replay resurrects a stray copy the next rebalance or repair pass
// re-evicts — placement, not presence, is authoritative for reads.
func (d *DataLake) Evict(refID string) {
	d.mu.Lock()
	wait, err := d.stageJournal(JournalRecord{Op: OpEvict, Sealed: Sealed{RefID: refID}})
	delete(d.records, refID)
	d.mu.Unlock()
	if err == nil && wait != nil {
		_ = wait()
	}
}

// Count returns live (non-deleted) record count.
func (d *DataLake) Count() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	n := 0
	for _, rec := range d.records {
		if !rec.deleted {
			n++
		}
	}
	return n
}

// Staging is the "secure temporary storage area" uploads land in before
// background ingestion picks them up (§II-B). Contents are already
// client-encrypted; staging only holds opaque bytes.
type Staging struct {
	faults  *faultinject.Registry
	pending *telemetry.Gauge // nil disables

	mu      sync.Mutex
	uploads map[string][]byte
}

// NewStaging creates an empty staging area.
func NewStaging() *Staging {
	return &Staging{uploads: make(map[string][]byte)}
}

// SetFaults installs a fault-injection registry (nil disables). Call
// before the staging area is shared across goroutines.
func (s *Staging) SetFaults(r *faultinject.Registry) { s.faults = r }

// SetTelemetry publishes the pending-upload depth as a gauge (nil
// disables). Call before the staging area is shared.
func (s *Staging) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		s.pending = nil
		return
	}
	s.pending = reg.Gauge("staging_pending_uploads")
}

// Put stores an encrypted upload and returns its upload ID.
func (s *Staging) Put(encrypted []byte) (string, error) {
	if err := s.faults.Check(FaultStagingPut); err != nil {
		return "", fmt.Errorf("store: %w", err)
	}
	id := "upload-" + hckrypto.NewUUID()
	s.mu.Lock()
	s.uploads[id] = append([]byte(nil), encrypted...)
	s.mu.Unlock()
	s.pending.Add(1)
	return id, nil
}

// Get returns an upload without consuming it, so a worker whose later
// pipeline stage fails transiently can retry from the same bytes.
func (s *Staging) Get(id string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.uploads[id]
	if !ok {
		return nil, fmt.Errorf("%w: upload %s", ErrNotFound, id)
	}
	return data, nil
}

// Remove deletes an upload once it reached a terminal state.
func (s *Staging) Remove(id string) {
	s.mu.Lock()
	_, present := s.uploads[id]
	delete(s.uploads, id)
	s.mu.Unlock()
	if present {
		s.pending.Add(-1)
	}
}

// Take removes and returns an upload (the background worker consumes it
// exactly once).
func (s *Staging) Take(id string) ([]byte, error) {
	s.mu.Lock()
	data, ok := s.uploads[id]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: upload %s", ErrNotFound, id)
	}
	delete(s.uploads, id)
	s.mu.Unlock()
	s.pending.Add(-1)
	return data, nil
}

// Len returns the number of pending uploads.
func (s *Staging) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.uploads)
}

// IdentityMap keeps the reference-id → patient-identity mapping. Access
// is restricted to a single authorized principal (the re-identification
// path of the Full Export service); everything else in the platform works
// with reference IDs only.
type IdentityMap struct {
	authorized string

	mu sync.RWMutex
	m  map[string]string // refID -> identity
}

// NewIdentityMap creates a map readable only by the authorized principal.
func NewIdentityMap(authorizedPrincipal string) *IdentityMap {
	return &IdentityMap{authorized: authorizedPrincipal, m: make(map[string]string)}
}

// Bind records the mapping for a reference ID.
func (im *IdentityMap) Bind(refID, identity string) {
	im.mu.Lock()
	defer im.mu.Unlock()
	im.m[refID] = identity
}

// Identity resolves a reference ID for the authorized principal only.
func (im *IdentityMap) Identity(refID, principal string) (string, error) {
	if principal != im.authorized {
		return "", fmt.Errorf("%w: principal %q", ErrIdentity, principal)
	}
	im.mu.RLock()
	defer im.mu.RUnlock()
	id, ok := im.m[refID]
	if !ok {
		return "", fmt.Errorf("%w: %s", ErrNotFound, refID)
	}
	return id, nil
}

// Forget removes every mapping for an identity (right-to-forget) and
// returns the reference IDs that pointed at it.
func (im *IdentityMap) Forget(identity string) []string {
	im.mu.Lock()
	defer im.mu.Unlock()
	var refs []string
	for ref, id := range im.m {
		if id == identity {
			refs = append(refs, ref)
			delete(im.m, ref)
		}
	}
	sort.Strings(refs)
	return refs
}
