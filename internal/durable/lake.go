package durable

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"healthcloud/internal/store"
)

// LakeLog is the log-structured persistence behind one store.DataLake:
// it implements store.Journal over a SegmentStore, so every lake
// mutation is framed to disk write-ahead, and OpenLake rebuilds the
// in-memory index by replay. Each shard of a sharded lake gets its own
// LakeLog in its own directory; because replication already moves
// portable Sealed records, the quorum/repair machinery above needs no
// changes at all.
type LakeLog struct {
	seg  *SegmentStore
	info ReplayInfo

	cmu sync.Mutex // serializes compactions
}

var _ store.Journal = (*LakeLog)(nil)

// OpenLake replays dir into lake (which must be freshly constructed —
// replay bypasses fault points and the journal) and opens the log for
// appending. Attach the returned LakeLog with lake.SetJournal before
// the lake takes traffic. A torn tail is truncated; interior
// corruption returns ErrCorrupt and no LakeLog.
func OpenLake(dir string, lake *store.DataLake, opt Options) (*LakeLog, error) {
	met := newSegMetrics(opt.Registry)
	info, activeSeq, err := replayDir(dir, opt.Tracer, met, func(rec Record) error {
		if rec.Kind != KindLake {
			return fmt.Errorf("unexpected frame kind 0x%02x in lake log", rec.Kind)
		}
		var jr store.JournalRecord
		if err := json.Unmarshal(rec.Payload, &jr); err != nil {
			return fmt.Errorf("decoding journal record: %w", err)
		}
		return lake.ApplyJournal(jr)
	})
	if err != nil {
		return nil, err
	}
	seg, err := openSegmentStore(dir, activeSeq, opt)
	if err != nil {
		return nil, err
	}
	return &LakeLog{seg: seg, info: info}, nil
}

// Append implements store.Journal: frame the record and stage it; the
// returned wait blocks until it is fsynced.
func (l *LakeLog) Append(rec store.JournalRecord) (func() error, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("durable: encoding journal record: %w", err)
	}
	return l.seg.Append(KindLake, payload)
}

// ReplayInfo reports what OpenLake replayed.
func (l *LakeLog) ReplayInfo() ReplayInfo { return l.info }

// Stats snapshots the underlying segment store, replay info included.
func (l *LakeLog) Stats() Stats {
	st := l.seg.Stats()
	st.ReplayedRecs = l.info.Records
	st.TruncatedLen = l.info.TruncatedBytes
	return st
}

// Wedged reports whether the writer refused after a torn write or
// failed fsync.
func (l *LakeLog) Wedged() bool { return l.seg.Wedged() }

// Sync flushes everything staged (graceful shutdown).
func (l *LakeLog) Sync() error { return l.seg.Sync() }

// Close syncs and closes the log.
func (l *LakeLog) Close() error { return l.seg.Close() }

// CompactStats reports one compaction pass.
type CompactStats struct {
	InputRecords  int // frames read from the sealed prefix
	OutputRecords int // frames written to the compacted file
	Dropped       int // shadowed puts, evicted refs, legacy grant frames
}

// Compact folds the sealed prefix of the log — every segment except
// the active one, plus any previous compacted file — into a single
// compacted file, dropping records replay no longer needs:
//
//   - older puts shadowed by a newer put or a tombstone of the same ref
//   - evicted refs (the put and the evict marker both go)
//   - grant frames, which only older logs hold and replay skips
//
// Tombstones themselves are KEPT: they are what stops a late hint or a
// repair pass from resurrecting a securely-deleted record after a
// restart. The pass is crash-safe at every step: the compacted file is
// written to a tmp- name, fsynced, atomically renamed, and only then
// are its inputs deleted — replay handles a crash between any two of
// those steps (tmp files are ignored, the widest cmp range wins, and
// covered segments are skipped).
func (l *LakeLog) Compact() (CompactStats, error) {
	l.cmu.Lock()
	defer l.cmu.Unlock()
	var cs CompactStats

	// Seal the active segment so the sealed prefix is immutable for the
	// rest of the pass.
	l.seg.mu.Lock()
	if l.seg.closed || l.seg.wedged {
		err := l.seg.wedgeErr
		if l.seg.closed {
			err = ErrClosed
		}
		l.seg.mu.Unlock()
		return cs, err
	}
	if err := l.seg.rotateLocked(); err != nil {
		l.seg.mu.Unlock()
		return cs, err
	}
	sealedUpTo := l.seg.seq - 1
	dir := l.seg.dir
	l.seg.mu.Unlock()

	names, err := listLogFiles(dir)
	if err != nil {
		return cs, err
	}
	// Inputs in replay order: widest cmp file first, then sealed segs.
	var inputs []string
	cmpEnd := 0
	for _, name := range names {
		if _, b, ok := parseCmp(name); ok && b > cmpEnd {
			cmpEnd = b
		}
	}
	for _, name := range names {
		if a, b, ok := parseCmp(name); ok {
			if b == cmpEnd && a <= 1 {
				inputs = append(inputs, name)
			}
			continue
		}
		if seq, ok := parseSeg(name); ok && seq > cmpEnd && seq <= sealedUpTo {
			inputs = append(inputs, name)
		}
	}
	if len(inputs) == 0 {
		return cs, nil
	}

	// Replay the sealed prefix. These files are immutable and were
	// fsynced at rotation, so any bad frame here is interior corruption.
	// Each ref keeps its latest put or tombstone; an evict drops it.
	latest := make(map[string]store.JournalRecord)
	var order []string // refs as first put, for a deterministic output
	for _, name := range inputs {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return cs, fmt.Errorf("durable: reading %s: %w", name, err)
		}
		recs, validEnd, ok := scanFrames(data)
		if !ok {
			return cs, fmt.Errorf("%w: bad frame at %s:%d during compaction", ErrCorrupt, name, validEnd)
		}
		for _, rec := range recs {
			var jr store.JournalRecord
			if err := json.Unmarshal(rec.Payload, &jr); err != nil {
				return cs, fmt.Errorf("%w: undecodable record in %s: %v", ErrCorrupt, name, err)
			}
			cs.InputRecords++
			switch ref := jr.Sealed.RefID; jr.Op {
			case store.OpPut, store.OpTombstone:
				if _, ok := latest[ref]; !ok {
					order = append(order, ref)
				}
				latest[ref] = jr
			case store.OpEvict:
				delete(latest, ref)
			}
		}
	}

	var out []store.JournalRecord
	for _, ref := range order {
		if jr, ok := latest[ref]; ok {
			out = append(out, jr)
			delete(latest, ref) // a ref re-put after an evict is listed twice
		}
	}
	cs.OutputRecords = len(out)
	cs.Dropped = cs.InputRecords - cs.OutputRecords

	tmp := filepath.Join(dir, fmt.Sprintf("tmp-cmp-%06d.log", sealedUpTo))
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o600)
	if err != nil {
		return cs, fmt.Errorf("durable: creating compaction output: %w", err)
	}
	for _, jr := range out {
		payload, err := json.Marshal(jr)
		if err != nil {
			f.Close()
			os.Remove(tmp)
			return cs, fmt.Errorf("durable: encoding compacted record: %w", err)
		}
		if _, err := f.Write(encodeFrame(KindLake, payload)); err != nil {
			f.Close()
			os.Remove(tmp)
			return cs, fmt.Errorf("durable: writing compaction output: %w", err)
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return cs, fmt.Errorf("durable: syncing compaction output: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return cs, fmt.Errorf("durable: closing compaction output: %w", err)
	}
	final := filepath.Join(dir, cmpName(1, sealedUpTo))
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return cs, fmt.Errorf("durable: publishing compaction output: %w", err)
	}
	syncDir(dir)
	// Cleanup: the rename is the commit point; anything covered is now
	// redundant and a crash before these deletes finish is handled at
	// the next open.
	for _, name := range inputs {
		if name != cmpName(1, sealedUpTo) {
			os.Remove(filepath.Join(dir, name))
		}
	}
	if l.seg.met != nil {
		l.seg.met.compactions.Inc()
		l.seg.met.compactDrops.Add(uint64(cs.Dropped))
	}
	return cs, nil
}

// syncDir fsyncs a directory so a just-renamed file survives power
// loss. Best-effort: some platforms refuse directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
