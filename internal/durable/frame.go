// Package durable is the platform's file-backed, crash-recoverable
// persistence layer (ROADMAP item 3). It has two faces built on one
// framing substrate:
//
//   - a log-structured backend for store.DataLake: every mutation
//     (put, tombstone, evict) is appended to CRC32C-framed
//     segment files before it is acknowledged, and the in-memory index
//     is rebuilt by replay on open;
//   - a write-ahead log for blockchain.Ledger: every committed block
//     is framed to the WAL before the world state applies it, and on
//     restart the chain and state map are replayed and hash-verified.
//
// Recovery follows the classic WAL discipline: a torn tail (the frame
// a crash interrupted) is truncated and startup proceeds; corruption
// anywhere else — a bad frame with intact frames after it, or any bad
// frame in a sealed segment or compacted file — is interior damage the
// log cannot explain, so the store refuses to open rather than serve a
// silently rewritten history. The KMS is deliberately not persisted
// here: the paper models it as a dedicated single-tenant (ideally
// hardware-backed) external system (§IV-B1), so its durability is the
// HSM's problem; this layer guarantees the ciphertexts and the
// provenance chain survive.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Frame kinds. The kind byte routes a payload to its decoder without
// parsing it: lake journal records and ledger blocks share the segment
// machinery but never share a directory.
const (
	// KindLake frames carry a store.JournalRecord (JSON).
	KindLake byte = 0x01
	// KindBlock frames carry a blockchain.Block (JSON).
	KindBlock byte = 0x02
	// KindSnapshot frames carry a blockchain.Snapshot (JSON): a ledger
	// world-state capture interleaved into the block WAL every K blocks
	// so restart replay can start from the latest snapshot instead of
	// block zero. A snapshot at height H sits between block H-1 and
	// block H in the log.
	KindSnapshot byte = 0x03
)

// frameMagic is the first byte of every frame — a cheap resync anchor
// when scanning damaged files.
const frameMagic byte = 0xD7

// frameHeaderSize is magic(1) + kind(1) + length(4) + crc32c(4).
const frameHeaderSize = 10

// maxFramePayload bounds a single record. Anything larger in a header
// is treated as corruption, not an allocation request — replaying an
// adversarial file must never OOM the platform.
const maxFramePayload = 16 << 20

// castagnoli is the CRC32C polynomial table (the iSCSI/ext4 checksum,
// hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Errors returned by the framing and replay layer.
var (
	// ErrCorrupt marks interior corruption: damage replay cannot
	// attribute to a torn tail. The store refuses to open on it.
	ErrCorrupt = errors.New("durable: interior corruption")
	// errTornFrame is the internal marker for an incomplete or
	// CRC-failing frame at the position being read; replay converts it
	// into either a tail truncation or ErrCorrupt.
	errTornFrame = errors.New("durable: torn or corrupt frame")
	// ErrClosed is returned by appends after Close.
	ErrClosed = errors.New("durable: store closed")
	// ErrWedged is returned by appends after a torn write: the file
	// position can no longer be trusted, so the writer refuses further
	// appends until the store is reopened (which truncates the tear).
	ErrWedged = errors.New("durable: segment writer wedged by torn write")
)

// frameCRC computes the checksum a frame carries: kind, length and
// payload, so a corrupted length field fails verification instead of
// mis-slicing the file.
func frameCRC(kind byte, payload []byte) uint32 {
	var hdr [5]byte
	hdr[0] = kind
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	crc := crc32.Update(0, castagnoli, hdr[:])
	return crc32.Update(crc, castagnoli, payload)
}

// encodeFrame renders one frame: magic | kind | len | crc32c | payload.
func encodeFrame(kind byte, payload []byte) []byte {
	buf := make([]byte, frameHeaderSize+len(payload))
	buf[0] = frameMagic
	buf[1] = kind
	binary.LittleEndian.PutUint32(buf[2:6], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[6:10], frameCRC(kind, payload))
	copy(buf[frameHeaderSize:], payload)
	return buf
}

// Record is one replayed frame.
type Record struct {
	Kind    byte
	Payload []byte
}

// decodeFrameAt parses the frame starting at off in data. It returns
// the record and the offset just past it, or errTornFrame when the
// bytes at off are not a complete, checksum-valid frame.
func decodeFrameAt(data []byte, off int) (Record, int, error) {
	if off+frameHeaderSize > len(data) {
		return Record{}, 0, errTornFrame
	}
	if data[off] != frameMagic {
		return Record{}, 0, errTornFrame
	}
	kind := data[off+1]
	length := binary.LittleEndian.Uint32(data[off+2 : off+6])
	if length > maxFramePayload {
		return Record{}, 0, errTornFrame
	}
	end := off + frameHeaderSize + int(length)
	if end > len(data) || end < off {
		return Record{}, 0, errTornFrame
	}
	payload := data[off+frameHeaderSize : end]
	if binary.LittleEndian.Uint32(data[off+6:off+10]) != frameCRC(kind, payload) {
		return Record{}, 0, errTornFrame
	}
	return Record{Kind: kind, Payload: payload}, end, nil
}

// scanFrames walks data from offset 0, returning every valid frame and
// the offset where the valid prefix ends. ok is false when the prefix
// ends before EOF (a torn or corrupt frame starts at validEnd).
func scanFrames(data []byte) (recs []Record, validEnd int, ok bool) {
	off := 0
	for off < len(data) {
		rec, next, err := decodeFrameAt(data, off)
		if err != nil {
			return recs, off, false
		}
		// Copy the payload out: data is a whole-file read buffer that
		// replay callers may retain record-by-record.
		rec.Payload = append([]byte(nil), rec.Payload...)
		recs = append(recs, rec)
		off = next
	}
	return recs, off, true
}

// resyncFinds reports whether any complete, checksum-valid frame starts
// anywhere in data after offset from — the tail-vs-interior test. A
// torn tail is by definition the last thing written; if valid frames
// exist beyond the damage, the damage is interior and the file is
// untrustworthy.
func resyncFinds(data []byte, from int) bool {
	for off := from + 1; off+frameHeaderSize <= len(data); off++ {
		if data[off] != frameMagic {
			continue
		}
		if _, _, err := decodeFrameAt(data, off); err == nil {
			return true
		}
	}
	return false
}

// readAll slurps a file. Segments are bounded (rotation) so whole-file
// reads keep replay simple and fast.
func readAll(r io.Reader) ([]byte, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("durable: reading segment: %w", err)
	}
	return data, nil
}
