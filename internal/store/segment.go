package store

// This file is the store's replication surface: the append-only log viewed
// as a sequence of sealed, checksummed, offset-addressable segments, plus
// the two operations a remote tail protocol needs — read a record-aligned
// byte range of my log (origin side) and apply a fetched range into my own
// log under the same keys (replica side).
//
// Why segments work here: the log is append-only and records are immutable
// once written, so any byte range of the durable prefix is a stable,
// re-fetchable unit. A segment seals when the open tail passes
// SegmentTargetBytes; its CRC is over the raw framed bytes, so a tailer can
// detect in-flight corruption at the chunk level and every record still
// carries its own framing CRC for record-level verification.
//
// Why applying replicated records is sound: store keys are canonical
// serializations namespaced by the constraint digest — node-independent by
// construction — and lookups are first-wins, so re-applying a record (or
// applying records out of order, or twice after a resumed tail) cannot
// change any answer. Corrupt records fail their checksum and are never
// indexed: replication, like the log itself, can only LOSE verdicts, never
// fabricate one.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// SegmentTargetBytes is the sealing threshold: the open tail segment seals
// once it reaches this many bytes (at a record boundary, so segments are
// always record-aligned). 64 KiB keeps a tailing replica's fetches small
// enough to rate-limit and re-fetch cheaply.
const SegmentTargetBytes = 1 << 16

// Segment describes one sealed, immutable byte range of the log.
type Segment struct {
	Index int    `json:"index"`
	Off   int64  `json:"off"`
	Len   int64  `json:"len"`
	CRC32 uint32 `json:"crc32"`
}

// ErrCorruptRange reports that a requested log range starts at a record
// that is torn or fails its checksum — the tailer should treat everything
// from that offset as unreadable (it can only re-fetch or stall, matching
// the scan-side rule that a torn record ends the trustworthy prefix).
var ErrCorruptRange = errors.New("store: corrupt record in requested range")

// noteDurableLocked folds one durably-written record (framing header plus
// payload, ending at offset end) into the segment accumulator, sealing the
// open segment when it passes the target. Callers hold s.mu; records enter
// in log order, so the running CRC matches the raw bytes on disk.
func (s *Store) noteDurableLocked(end int64, hdr, payload []byte) {
	s.segCRC = crc32.Update(s.segCRC, crc32.IEEETable, hdr)
	s.segCRC = crc32.Update(s.segCRC, crc32.IEEETable, payload)
	if end-s.segStart >= SegmentTargetBytes {
		s.segs = append(s.segs, Segment{
			Index: len(s.segs),
			Off:   s.segStart,
			Len:   end - s.segStart,
			CRC32: s.segCRC,
		})
		s.segStart = end
		s.segCRC = 0
	}
}

// Segments returns the sealed segments (a copy) and the current durable
// size. Bytes in [lastSealed.Off+Len, size) are the open tail — readable
// through ReadTail like any other range, just not yet summarized.
func (s *Store) Segments() ([]Segment, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	segs := make([]Segment, len(s.segs))
	copy(segs, s.segs)
	return segs, s.size
}

// ReadSegment reads one sealed segment's raw bytes and verifies them
// against the sealed CRC, so a replica fetching by index gets either the
// exact bytes the origin sealed or an error — never silently damaged data.
func (s *Store) ReadSegment(index int) ([]byte, Segment, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, Segment{}, errors.New("store: closed")
	}
	if index < 0 || index >= len(s.segs) {
		n := len(s.segs)
		s.mu.Unlock()
		return nil, Segment{}, fmt.Errorf("store: segment %d of %d", index, n)
	}
	seg := s.segs[index]
	s.mu.Unlock()
	data := make([]byte, seg.Len)
	if _, err := s.f.ReadAt(data, seg.Off); err != nil {
		return nil, seg, err
	}
	if crc32.ChecksumIEEE(data) != seg.CRC32 {
		return nil, seg, fmt.Errorf("%w: segment %d checksum mismatch", ErrCorruptRange, index)
	}
	return data, seg, nil
}

// ReadTail reads whole framed records starting at the record boundary
// `from`, up to roughly maxBytes (always at least one record when one
// exists), and returns them with the current durable size — everything a
// resumable remote tail needs: the caller advances its position by
// len(data) and knows its lag is size-(from+len(data)).
//
// Every returned record has been re-verified against its framing CRC, so
// on-disk corruption at the origin truncates the response at the last good
// record; if the record AT `from` is itself bad, ErrCorruptRange reports
// that the tail from here is unreadable rather than returning bytes a
// replica would immediately reject.
func (s *Store) ReadTail(from int64, maxBytes int) ([]byte, int64, error) {
	s.mu.Lock()
	size := s.size
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil, 0, errors.New("store: closed")
	}
	if from < 0 || from > size {
		return nil, size, fmt.Errorf("store: tail offset %d outside log of %d bytes", from, size)
	}
	if maxBytes <= 0 {
		maxBytes = SegmentTargetBytes
	}
	var out []byte
	off := from
	hdr := make([]byte, headerLen)
	for off < size {
		if size-off < headerLen {
			break // a torn header cannot be durable; s.size never ends inside framing
		}
		if _, err := s.f.ReadAt(hdr, off); err != nil {
			return nil, size, err
		}
		n := binary.BigEndian.Uint32(hdr[:4])
		sum := binary.BigEndian.Uint32(hdr[4:])
		if n == 0 || n > maxRecordLen || off+headerLen+int64(n) > size {
			if len(out) == 0 {
				return nil, size, fmt.Errorf("%w: torn framing at offset %d", ErrCorruptRange, off)
			}
			break
		}
		if len(out) > 0 && len(out)+headerLen+int(n) > maxBytes {
			break
		}
		payload := make([]byte, n)
		if _, err := s.f.ReadAt(payload, off+headerLen); err != nil {
			return nil, size, err
		}
		if crc32.ChecksumIEEE(payload) != sum {
			if len(out) == 0 {
				return nil, size, fmt.Errorf("%w: checksum failure at offset %d", ErrCorruptRange, off)
			}
			break
		}
		out = append(out, hdr...)
		out = append(out, payload...)
		off += headerLen + int64(n)
	}
	return out, size, nil
}

// ApplyStats reports what one replicated chunk did to the local store.
type ApplyStats struct {
	// Records is how many well-formed records the chunk carried; Applied is
	// how many were durably written here; Duplicates were already present
	// under the same key (first-wins: the local record stands); Dropped
	// were lost to an injected store-append fault or write error (sound:
	// the position does not advance past a chunk that errored, and a
	// dropped record re-arrives on restart or is simply re-proved).
	Records    int
	Applied    int
	Duplicates int
	Dropped    int
}

// ApplyReplicated scans framed records from a chunk fetched off a peer's
// log (see ReadTail) and appends the novel ones to the local store under
// the same canonical keys, synchronously — the replicator is a background
// goroutine, so blocking on the disk here is fine and keeps a burst of
// replicated records from flooding the write-behind queue into sound but
// silent drops.
//
// Order-free and idempotent: records already present under their key count
// as Duplicates and the local copy wins, so replaying a chunk (resumed
// tail, re-fetch after corruption) changes nothing. A record that fails
// its checksum stops the apply with an error and is never indexed: the
// caller must not advance its tail position past the chunk, so the bytes
// are re-fetched — in-flight corruption can delay replication, never
// poison it.
func (s *Store) ApplyReplicated(data []byte) (ApplyStats, error) {
	var st ApplyStats
	off := 0
	for off < len(data) {
		if len(data)-off < headerLen {
			return st, fmt.Errorf("%w: torn header in replicated chunk", ErrCorruptRange)
		}
		n := binary.BigEndian.Uint32(data[off : off+4])
		sum := binary.BigEndian.Uint32(data[off+4 : off+headerLen])
		if n == 0 || n > maxRecordLen || off+headerLen+int(n) > len(data) {
			return st, fmt.Errorf("%w: torn payload in replicated chunk", ErrCorruptRange)
		}
		payload := data[off+headerLen : off+headerLen+int(n)]
		if crc32.ChecksumIEEE(payload) != sum {
			return st, fmt.Errorf("%w: checksum failure in replicated chunk", ErrCorruptRange)
		}
		st.Records++
		s.applyRecord(payload, &st)
		off += headerLen + int(n)
	}
	return st, nil
}

// applyRecord applies one checksum-verified record payload with first-wins
// dedupe. Unknown kinds are skipped (a newer origin's record types are
// data this replica cannot index, not an error).
func (s *Store) applyRecord(payload []byte, st *ApplyStats) {
	switch kind := payload[0]; kind {
	case recVerdict, recWitness:
		key, _, ok := decodeKeyed(payload, kind)
		if !ok {
			return
		}
		if _, hit := s.lookup(kind, string(key)); hit {
			st.Duplicates++
			return
		}
		s.applySync(pending{payload: payload, key: string(key), kind: kind}, st)
	case recLemma:
		lits, ok := decodeLemma(payload)
		if !ok {
			return
		}
		fp := lemmaFingerprint(lits)
		s.mu.Lock()
		dup := s.lemmaFP[fp]
		if !dup {
			s.lemmaFP[fp] = true
		}
		s.mu.Unlock()
		if dup {
			st.Duplicates++
			return
		}
		if s.applySync(pending{payload: payload}, st) {
			// Mirror scan(): keep Lemmas() complete for whoever opens this
			// log next (the live engine pool was seeded at construction).
			s.mu.Lock()
			s.lemmas = append(s.lemmas, lits...)
			s.lemmaN = append(s.lemmaN, len(lits))
			s.mu.Unlock()
		}
	}
}

// applySync writes one replicated record through the same durable path as
// the write-behind writer (including the store-append fault window) and
// folds the outcome into st. The payload is copied: it aliases the fetched
// chunk, which the caller may reuse.
func (s *Store) applySync(p pending, st *ApplyStats) bool {
	p.payload = append([]byte(nil), p.payload...)
	if s.writeOne(p) {
		st.Applied++
		return true
	}
	st.Dropped++
	return false
}
