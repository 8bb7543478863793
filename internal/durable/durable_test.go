package durable

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"healthcloud/internal/blockchain"
	"healthcloud/internal/faultinject"
	"healthcloud/internal/hckrypto"
	"healthcloud/internal/store"
)

func newLake(t *testing.T) *store.DataLake {
	t.Helper()
	kms, err := hckrypto.NewKMS("tenant-a")
	if err != nil {
		t.Fatalf("NewKMS: %v", err)
	}
	return store.NewDataLake(kms, "storage-svc")
}

// openJournaled opens dir into a fresh lake and attaches the journal.
func openJournaled(t *testing.T, dir string, opt Options) (*store.DataLake, *LakeLog) {
	t.Helper()
	lake := newLake(t)
	log, err := OpenLake(dir, lake, opt)
	if err != nil {
		t.Fatalf("OpenLake: %v", err)
	}
	lake.SetJournal(log)
	return lake, log
}

func TestLakeSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	lake, log := openJournaled(t, dir, Options{})

	refLive, err := lake.Put("patient-1", []byte("vitals"), store.Meta{Tenant: "tenant-a"})
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	refDead, err := lake.Put("patient-2", []byte("labs"), store.Meta{Tenant: "tenant-a"})
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := lake.Grant(refLive, "analytics"); err != nil {
		t.Fatalf("Grant: %v", err)
	}
	if err := lake.SecureDelete(refDead); err != nil {
		t.Fatalf("SecureDelete: %v", err)
	}
	want, err := lake.GetSealed(refLive)
	if err != nil {
		t.Fatalf("GetSealed: %v", err)
	}
	if err := log.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	lake2, log2 := openJournaled(t, dir, Options{})
	defer log2.Close()
	if info := log2.ReplayInfo(); info.Records == 0 || info.TruncatedBytes != 0 {
		t.Fatalf("replay info = %+v, want records > 0 and no truncation", info)
	}
	got, err := lake2.GetSealed(refLive)
	if err != nil {
		t.Fatalf("GetSealed after reopen: %v", err)
	}
	if got.KeyID != want.KeyID || string(got.Ciphertext) != string(want.Ciphertext) {
		t.Fatal("live record not byte-identical after replay")
	}
	dead, err := lake2.GetSealed(refDead)
	if err != nil {
		t.Fatalf("GetSealed tombstone: %v", err)
	}
	if !dead.Deleted || len(dead.Ciphertext) != 0 {
		t.Fatalf("tombstone not preserved: %+v", dead)
	}
	if n := lake2.Count(); n != 1 {
		t.Fatalf("Count after reopen = %d, want 1", n)
	}
}

func TestEvictReplay(t *testing.T) {
	dir := t.TempDir()
	lake, log := openJournaled(t, dir, Options{})
	ref, err := lake.Put("p", []byte("x"), store.Meta{Tenant: "tenant-a"})
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	lake.Evict(ref)
	log.Close()

	lake2, log2 := openJournaled(t, dir, Options{})
	defer log2.Close()
	if _, err := lake2.GetSealed(ref); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("evicted record replayed back: err=%v", err)
	}
}

// activeSegPath returns the newest segment file in dir.
func activeSegPath(t *testing.T, dir string) string {
	t.Helper()
	names, err := listLogFiles(dir)
	if err != nil || len(names) == 0 {
		t.Fatalf("no log files in %s (err=%v)", dir, err)
	}
	var segs []string
	for _, n := range names {
		if _, ok := parseSeg(n); ok {
			segs = append(segs, n)
		}
	}
	if len(segs) == 0 {
		t.Fatalf("no segment files in %s", dir)
	}
	return filepath.Join(dir, segs[len(segs)-1])
}

func TestTornTailTruncatedOnReopen(t *testing.T) {
	dir := t.TempDir()
	lake, log := openJournaled(t, dir, Options{})
	ref, err := lake.Put("p", []byte("payload"), store.Meta{Tenant: "tenant-a"})
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	log.Close()

	// Simulate a crash mid-write: a partial frame at the tail.
	path := activeSegPath(t, dir)
	frame := encodeFrame(KindLake, []byte(`{"op":"put"}`))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	f.Write(frame[:len(frame)-3])
	f.Close()

	lake2, log2 := openJournaled(t, dir, Options{})
	defer log2.Close()
	if got := log2.ReplayInfo().TruncatedBytes; got != int64(len(frame)-3) {
		t.Fatalf("TruncatedBytes = %d, want %d", got, len(frame)-3)
	}
	if _, err := lake2.GetSealed(ref); err != nil {
		t.Fatalf("record before the tear lost: %v", err)
	}
}

func TestInteriorCorruptionRefuses(t *testing.T) {
	dir := t.TempDir()
	lake, log := openJournaled(t, dir, Options{})
	for i := 0; i < 5; i++ {
		if _, err := lake.Put("p", []byte("record payload to give the frame some width"), store.Meta{Tenant: "t"}); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	log.Close()

	// Flip one byte in the middle of the first frame's payload: later
	// frames stay valid, so this must be interior corruption.
	path := activeSegPath(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	data[frameHeaderSize+10] ^= 0xFF
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatalf("write: %v", err)
	}

	if _, err := OpenLake(dir, newLake(t), Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("OpenLake on interior corruption = %v, want ErrCorrupt", err)
	}
}

func TestSealedSegmentCorruptTailRefuses(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation, giving us sealed (non-final) files.
	lake, log := openJournaled(t, dir, Options{MaxSegmentBytes: 256})
	for i := 0; i < 6; i++ {
		if _, err := lake.Put("p", []byte("padding padding padding padding"), store.Meta{Tenant: "t"}); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	log.Close()
	names, _ := listLogFiles(dir)
	if len(names) < 2 {
		t.Fatalf("expected rotation, got files %v", names)
	}
	// Truncate the FIRST (sealed) segment mid-frame. In the final
	// segment this would be a torn tail; in a sealed file it is interior
	// corruption — sealed segments were fsynced at rotation and have no
	// in-flight tail to tear.
	first := filepath.Join(dir, names[0])
	fi, _ := os.Stat(first)
	if err := os.Truncate(first, fi.Size()-4); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	if _, err := OpenLake(dir, newLake(t), Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("OpenLake on sealed-segment damage = %v, want ErrCorrupt", err)
	}
}

func TestTornWriteFaultWedgesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	faults := faultinject.NewRegistry(7)
	lake, log := openJournaled(t, dir, Options{FaultScope: "durable.test", Faults: faults})

	ref, err := lake.Put("p", []byte("acked before the tear"), store.Meta{Tenant: "t"})
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	// The next append tears mid-frame and wedges the writer.
	faults.Enable("durable.test.torn", faultinject.Fault{FailFirst: 1})
	if _, err := lake.Put("p", []byte("torn"), store.Meta{Tenant: "t"}); err == nil {
		t.Fatal("Put during torn write succeeded, want error")
	}
	if !log.Wedged() {
		t.Fatal("writer not wedged after torn write")
	}
	if _, err := lake.Put("p", []byte("after"), store.Meta{Tenant: "t"}); err == nil {
		t.Fatal("Put after wedge succeeded, want error")
	}
	log.Close()

	lake2, log2 := openJournaled(t, dir, Options{})
	defer log2.Close()
	if log2.ReplayInfo().TruncatedBytes == 0 {
		t.Fatal("no torn tail truncated on reopen")
	}
	if _, err := lake2.GetSealed(ref); err != nil {
		t.Fatalf("acknowledged record lost across tear: %v", err)
	}
	if _, err := lake2.Put("p", []byte("writes work again"), store.Meta{Tenant: "t"}); err != nil {
		t.Fatalf("Put after recovery: %v", err)
	}
}

func TestWriteAndFsyncFaults(t *testing.T) {
	dir := t.TempDir()
	faults := faultinject.NewRegistry(7)
	lake, log := openJournaled(t, dir, Options{FaultScope: "d", Faults: faults})

	faults.Enable("d.write", faultinject.Fault{FailFirst: 1})
	if _, err := lake.Put("p", []byte("x"), store.Meta{Tenant: "t"}); err == nil {
		t.Fatal("Put with write fault succeeded")
	}
	// Write faults are transient (nothing was staged); the next write
	// goes through.
	if _, err := lake.Put("p", []byte("x"), store.Meta{Tenant: "t"}); err != nil {
		t.Fatalf("Put after transient write fault: %v", err)
	}
	// A failed fsync wedges: after fsync lies once, the page-cache
	// state is unknowable.
	faults.Enable("d.fsync", faultinject.Fault{FailFirst: 1})
	if _, err := lake.Put("p", []byte("x"), store.Meta{Tenant: "t"}); err == nil {
		t.Fatal("Put with fsync fault succeeded")
	}
	if !log.Wedged() {
		t.Fatal("writer not wedged after fsync failure")
	}
	log.Close()
}

func TestRotationCompactionAndReplayEquivalence(t *testing.T) {
	dir := t.TempDir()
	lake, log := openJournaled(t, dir, Options{MaxSegmentBytes: 512})

	var refs []string
	for i := 0; i < 12; i++ {
		ref, err := lake.Put("p", []byte("record-payload-record-payload"), store.Meta{Tenant: "t"})
		if err != nil {
			t.Fatalf("Put: %v", err)
		}
		refs = append(refs, ref)
	}
	if err := lake.SecureDelete(refs[0]); err != nil {
		t.Fatalf("SecureDelete: %v", err)
	}
	lake.Evict(refs[1])
	if err := lake.Grant(refs[2], "analytics"); err != nil {
		t.Fatalf("Grant: %v", err)
	}

	cs, err := log.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if cs.Dropped == 0 {
		t.Fatalf("compaction dropped nothing: %+v", cs)
	}
	// More writes after compaction land in the new active segment.
	post, err := lake.Put("p", []byte("post-compaction"), store.Meta{Tenant: "t"})
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	wantRefs := lake.Refs()
	log.Close()

	lake2, log2 := openJournaled(t, dir, Options{})
	defer log2.Close()
	gotRefs := lake2.Refs()
	if len(gotRefs) != len(wantRefs) {
		t.Fatalf("replayed refs = %d, want %d", len(gotRefs), len(wantRefs))
	}
	for i := range wantRefs {
		if gotRefs[i] != wantRefs[i] {
			t.Fatalf("ref %d: %s != %s", i, gotRefs[i], wantRefs[i])
		}
	}
	for _, ref := range []string{refs[2], post} {
		a, err1 := lake.GetSealed(ref)
		b, err2 := lake2.GetSealed(ref)
		if err1 != nil || err2 != nil {
			t.Fatalf("GetSealed %s: %v / %v", ref, err1, err2)
		}
		if string(a.Ciphertext) != string(b.Ciphertext) {
			t.Fatalf("record %s diverged across compaction+replay", ref)
		}
	}
	// The tombstone must survive compaction (resurrection prevention).
	if s, err := lake2.GetSealed(refs[0]); err != nil || !s.Deleted {
		t.Fatalf("tombstone lost by compaction: s=%+v err=%v", s, err)
	}
	if _, err := lake2.GetSealed(refs[1]); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("evicted ref resurrected by compaction: %v", err)
	}
}

func TestCompactionLeftoversCleanedAtOpen(t *testing.T) {
	dir := t.TempDir()
	lake, log := openJournaled(t, dir, Options{MaxSegmentBytes: 512})
	var ref string
	for i := 0; i < 8; i++ {
		var err error
		if ref, err = lake.Put("p", []byte("record-payload-record-payload"), store.Meta{Tenant: "t"}); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if _, err := log.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	log.Close()

	// Simulate the crash windows: a tmp file that never renamed and a
	// stale segment "covered" by the compacted range.
	if err := os.WriteFile(filepath.Join(dir, "tmp-cmp-000009.log"), []byte("half written"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segName(1)), encodeFrame(KindLake, []byte(`{"op":"evict","sealed":{"ref_id":"`+ref+`"}}`)), 0o600); err != nil {
		t.Fatal(err)
	}

	lake2, log2 := openJournaled(t, dir, Options{})
	defer log2.Close()
	// The covered segment must have been skipped (its evict ignored).
	if _, err := lake2.GetSealed(ref); err != nil {
		t.Fatalf("covered leftover segment was replayed: %v", err)
	}
	names, _ := listLogFiles(dir)
	for _, n := range names {
		if n == segName(1) {
			t.Fatalf("covered leftover segment not cleaned: %v", names)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "tmp-cmp-000009.log")); !os.IsNotExist(err) {
		t.Fatalf("tmp leftover not cleaned: %v", err)
	}
}

func TestGroupCommitBatchesFsyncs(t *testing.T) {
	dir := t.TempDir()
	seg, err := openSegmentStore(dir, 1, Options{})
	if err != nil {
		t.Fatalf("openSegmentStore: %v", err)
	}
	defer seg.Close()
	const writers, each = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := seg.AppendSync(KindLake, []byte("concurrent append payload")); err != nil {
					t.Errorf("AppendSync: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := seg.Stats()
	if st.Appends != writers*each {
		t.Fatalf("appends = %d, want %d", st.Appends, writers*each)
	}
	if st.Fsyncs >= st.Appends {
		t.Fatalf("group commit did not batch: %d fsyncs for %d appends", st.Fsyncs, st.Appends)
	}
}

func newTx(handle string) blockchain.Transaction {
	return blockchain.NewTransaction(blockchain.EventDataReceipt, "ingest", handle, nil, nil)
}

func TestWALReplayRestoresLedger(t *testing.T) {
	dir := t.TempDir()
	wal, blocks, err := OpenWAL(dir, Options{})
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	if len(blocks) != 0 {
		t.Fatalf("fresh WAL replayed %d blocks", len(blocks))
	}
	led := blockchain.NewLedger()
	led.SetWAL(wal)
	for i := 0; i < 5; i++ {
		if _, err := led.AppendBlock([]blockchain.Transaction{newTx("ref-h")}); err != nil {
			t.Fatalf("AppendBlock: %v", err)
		}
	}
	wantHash := led.StateHash()
	wal.Close()

	wal2, blocks2, err := OpenWAL(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer wal2.Close()
	led2 := blockchain.NewLedger()
	if err := led2.Restore(blocks2); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	led2.SetWAL(wal2)
	if err := led2.VerifyChain(); err != nil {
		t.Fatalf("VerifyChain after restore: %v", err)
	}
	if got := led2.StateHash(); got != wantHash {
		t.Fatalf("StateHash after replay = %s, want %s", got, wantHash)
	}
	// The restored ledger keeps committing into the same WAL.
	if _, err := led2.AppendBlock([]blockchain.Transaction{newTx("ref-h2")}); err != nil {
		t.Fatalf("AppendBlock after restore: %v", err)
	}
}

func TestWALSharedAcrossPeersDedups(t *testing.T) {
	dir := t.TempDir()
	wal, _, err := OpenWAL(dir, Options{})
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	defer wal.Close()
	peerA, peerB := blockchain.NewLedger(), blockchain.NewLedger()
	peerA.SetWAL(wal)
	peerB.SetWAL(wal)
	txs := []blockchain.Transaction{newTx("ref-x")}
	if _, err := peerA.AppendBlock(txs); err != nil {
		t.Fatalf("peer A commit: %v", err)
	}
	if _, err := peerB.AppendBlock(txs); err != nil {
		t.Fatalf("peer B commit (dedup path): %v", err)
	}
	if st := wal.Stats(); st.Appends != 1 {
		t.Fatalf("WAL holds %d frames for 1 logical block", st.Appends)
	}
	// A diverging block at the same height must be rejected loudly.
	div := blockchain.NewLedger()
	div.SetWAL(wal)
	if _, err := div.AppendBlock([]blockchain.Transaction{newTx("ref-other")}); err == nil {
		t.Fatal("divergent block accepted by shared WAL")
	}
}

func TestWALTornTailDropsOnlyUnackedBlock(t *testing.T) {
	dir := t.TempDir()
	wal, _, err := OpenWAL(dir, Options{})
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	led := blockchain.NewLedger()
	led.SetWAL(wal)
	for i := 0; i < 3; i++ {
		if _, err := led.AppendBlock([]blockchain.Transaction{newTx("ref-h")}); err != nil {
			t.Fatalf("AppendBlock: %v", err)
		}
	}
	wal.Close()

	path := activeSegPath(t, dir)
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	partial := encodeFrame(KindBlock, []byte(`{"number":3}`))
	f.Write(partial[:7])
	f.Close()

	wal2, blocks, err := OpenWAL(dir, Options{})
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	defer wal2.Close()
	if len(blocks) != 3 {
		t.Fatalf("replayed %d blocks, want 3", len(blocks))
	}
	led2 := blockchain.NewLedger()
	if err := led2.Restore(blocks); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if led2.StateHash() != led.StateHash() {
		t.Fatal("state hash diverged after torn-tail recovery")
	}
}

// TestTornOffsetTable crafts, for every possible cut offset within a
// frame, a log holding two intact frames plus a prefix of a third, and
// asserts replay always recovers exactly the two intact records and
// truncates the rest — the "torn at any byte" guarantee.
func TestTornOffsetTable(t *testing.T) {
	intact1 := encodeFrame(KindLake, []byte(`{"op":"put","sealed":{"ref_id":"a"}}`))
	intact2 := encodeFrame(KindLake, []byte(`{"op":"put","sealed":{"ref_id":"b"}}`))
	torn := encodeFrame(KindLake, []byte(`{"op":"put","sealed":{"ref_id":"c"}}`))
	for cut := 0; cut < len(torn); cut++ {
		dir := t.TempDir()
		var file []byte
		file = append(file, intact1...)
		file = append(file, intact2...)
		file = append(file, torn[:cut]...)
		if err := os.WriteFile(filepath.Join(dir, segName(1)), file, 0o600); err != nil {
			t.Fatal(err)
		}
		n := 0
		info, active, err := replayDir(dir, nil, nil, func(Record) error { n++; return nil })
		if err != nil {
			t.Fatalf("cut=%d: replay error: %v", cut, err)
		}
		if n != 2 {
			t.Fatalf("cut=%d: replayed %d records, want 2", cut, n)
		}
		if cut > 0 && info.TruncatedBytes != int64(cut) {
			t.Fatalf("cut=%d: truncated %d bytes", cut, info.TruncatedBytes)
		}
		if active != 1 {
			t.Fatalf("cut=%d: active segment %d, want 1", cut, active)
		}
		// The truncation must round-trip: a second replay sees a clean
		// log with the same two records and nothing to cut.
		n2 := 0
		info2, _, err := replayDir(dir, nil, nil, func(Record) error { n2++; return nil })
		if err != nil || n2 != 2 || info2.TruncatedBytes != 0 {
			t.Fatalf("cut=%d: second replay n=%d trunc=%d err=%v", cut, n2, info2.TruncatedBytes, err)
		}
	}
}

// TestLegacyGrantFramesSkippedAndCompacted: a log written when grants
// were journaled still opens. Replay applies its puts and tombstones and
// skips its grant frames (a grant is an in-memory KMS capability), and
// compaction drops them.
func TestLegacyGrantFramesSkippedAndCompacted(t *testing.T) {
	dir := t.TempDir()
	var seg []byte
	for _, payload := range []string{
		`{"op":"put","sealed":{"ref_id":"ref-live","key_id":"k1","ciphertext":"YWJj","meta":{"tenant":"t"},"deleted":false}}`,
		`{"op":"grant","sealed":{"ref_id":"ref-live","key_id":"k1"},"principal":"analytics"}`,
		`{"op":"put","sealed":{"ref_id":"ref-dead","key_id":"k2","ciphertext":"ZGVm","meta":{"tenant":"t"},"deleted":false}}`,
		`{"op":"grant","sealed":{"ref_id":"ref-dead","key_id":"k2"},"principal":"analytics"}`,
		`{"op":"tombstone","sealed":{"ref_id":"ref-dead","key_id":"k2","meta":{"tenant":"t"},"deleted":true}}`,
	} {
		seg = append(seg, encodeFrame(KindLake, []byte(payload))...)
	}
	if err := os.WriteFile(filepath.Join(dir, segName(1)), seg, 0o600); err != nil {
		t.Fatal(err)
	}
	check := func(lake *store.DataLake) {
		t.Helper()
		if live, err := lake.GetSealed("ref-live"); err != nil || live.Deleted || string(live.Ciphertext) != "abc" {
			t.Fatalf("live record = %+v, %v", live, err)
		}
		if dead, err := lake.GetSealed("ref-dead"); err != nil || !dead.Deleted {
			t.Fatalf("tombstone = %+v, %v", dead, err)
		}
	}
	lake, log := openJournaled(t, dir, Options{})
	if n := log.ReplayInfo().Records; n != 5 {
		t.Fatalf("replayed %d frames, want 5", n)
	}
	check(lake)

	cs, err := log.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if cs.InputRecords != 5 || cs.OutputRecords != 2 {
		t.Fatalf("compaction %+v, want 5 frames in and the put + tombstone out", cs)
	}
	log.Close()
	names, err := listLogFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(data, []byte(`"op":"grant"`)) {
			t.Fatalf("%s still holds a grant frame after compaction", name)
		}
	}
	lake2, log2 := openJournaled(t, dir, Options{})
	defer log2.Close()
	check(lake2)
}
