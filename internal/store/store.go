// Package store is the durable warm state of a SPES process: an append-only
// log of proof obligations' verdicts and refutation witnesses, plus an
// in-memory index over it, so restarts and new replicas start with the hit
// rates a long-lived process earned.
//
// Keys are interner-independent. A verdict record is keyed on the canonical
// serialization of its obligation formula (fol.Term.Key) and a witness
// record on its normalized pair's key — never on interner IDs, which are
// dense per-epoch and meaningless across processes. The index
// buckets on a 64-bit FNV fingerprint of the key and confirms the full key
// by reading the record back before returning a verdict, preserving the
// repo-wide invariant that a hash collision can never substitute a
// different obligation's verdict.
//
// The log is crash-safe in the only direction that matters: records are
// length-prefixed and checksummed, and Open truncates the log at the first
// torn or corrupt record. Corruption can only LOSE verdicts (the process
// re-proves them); it can never fabricate one, because a record that fails
// its checksum is never indexed. The store-append fault site exercises the
// torn-write window deterministically.
//
// Only definite verdicts are stored — the same invariant the obligation
// cache enforces. Unknown is a budget artifact, not a fact about the
// obligation, and must be re-derived by whoever has budget to spend.
package store

import (
	"bufio"
	"encoding/binary"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"spes/internal/fault"
)

// record kinds (first payload byte). Logs written while theory lemmas were
// persisted also hold 'L' records; they are framed and checksummed like any
// other record, so Open and ApplyReplicated count them and read past them,
// but nothing indexes or replicates them.
const (
	recVerdict = 'V'
	recWitness = 'W'
)

// headerLen is the fixed per-record framing: 4-byte big-endian payload
// length followed by a 4-byte CRC32 (IEEE) of the payload.
const headerLen = 8

// maxRecordLen rejects absurd length prefixes on open, so a corrupt length
// cannot make the scanner allocate gigabytes or swallow the rest of the log
// as one "record".
const maxRecordLen = 1 << 24

// ref locates one record's payload in the log.
type ref struct {
	off int64
	n   int
}

// Stats counts store traffic since Open. Reads are atomic under the store
// mutex; Snapshot copies them out.
type Stats struct {
	// Records and Bytes describe the log as scanned at Open plus appends
	// since (Bytes includes framing).
	Records int64 `json:"records"`
	Bytes   int64 `json:"bytes"`
	// TruncatedBytes is how much torn/corrupt tail Open cut off.
	TruncatedBytes int64 `json:"truncated_bytes"`
	// Hits and Misses count LookupVerdict outcomes.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Appends counts records durably written; Dropped counts appends lost
	// to a full write-behind queue, an injected fault, or a closed store.
	Appends int64 `json:"appends"`
	Dropped int64 `json:"dropped"`
}

// Store is safe for concurrent use. Lookups hit the in-memory index and
// confirm against the file with ReadAt; appends go through a write-behind
// queue drained by one writer goroutine, so the solver path never blocks on
// the disk.
type Store struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	size    int64
	index   map[uint64][]ref // verdict records only, FNV(key) → refs
	witness map[uint64][]ref // witness records only, FNV(pair key) → refs
	stats   Stats
	closed  bool

	// Segment accumulator (see segment.go): sealed segments over the
	// durable prefix, plus the running CRC and start offset of the open
	// (unsealed) tail segment. All guarded by mu.
	segs     []Segment
	segStart int64
	segCRC   uint32

	// queue is never closed, so a send racing Close cannot panic: Close
	// stops the writer with a zero pending instead.
	queue chan pending
	done  chan struct{}
}

type pending struct {
	payload []byte
	key     string        // key to index after a durable write
	kind    byte          // which index the key belongs to (recVerdict or recWitness)
	ackCh   chan struct{} // Flush sentinel: nil payload, close on receipt
}

// queueDepth bounds the write-behind queue. A full queue drops the append —
// losing a verdict is sound, blocking a verification worker is not.
const queueDepth = 1024

// Open opens (creating if needed) the verdict log at path, scans it,
// truncates any torn tail, and builds the in-memory index. The parent
// directory must exist.
func Open(path string) (*Store, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	s := &Store{
		f:       f,
		path:    path,
		index:   make(map[uint64][]ref),
		witness: make(map[uint64][]ref),
		queue:   make(chan pending, queueDepth),
		done:    make(chan struct{}),
	}
	if err := s.scan(); err != nil {
		f.Close()
		return nil, err
	}
	go s.writer()
	return s, nil
}

// OpenDir opens the canonical log file name inside dir, creating dir if
// needed. This is the entry point servers and benches use.
func OpenDir(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return Open(filepath.Join(dir, "spes-verdicts.log"))
}

// Path returns the log file path.
func (s *Store) Path() string { return s.path }

// scanBufSize is the read buffer of scan's single sequential pass.
const scanBufSize = 64 << 10

// scan replays the log, indexing verdict and witness records.
// It stops at — and truncates — the first record that is torn (short
// header/payload) or fails its checksum: everything after a torn record is
// unframed noise, and a half-written record must not survive a restart to
// be half-read again by the next.
//
// It reads [0, size) once, in order, through a buffered reader, and reads
// every payload into one reused buffer: nothing indexPayload or
// noteDurableLocked keeps may alias it.
func (s *Store) scan() error {
	info, err := s.f.Stat()
	if err != nil {
		return err
	}
	total := info.Size()
	r := bufio.NewReaderSize(io.NewSectionReader(s.f, 0, total), scanBufSize)
	var off int64
	var hdr [headerLen]byte
	var payload []byte
	for off < total {
		if total-off < headerLen {
			break // torn header
		}
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return err
		}
		n := binary.BigEndian.Uint32(hdr[:4])
		sum := binary.BigEndian.Uint32(hdr[4:])
		if n == 0 || n > maxRecordLen || off+headerLen+int64(n) > total {
			break // torn or absurd payload
		}
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(r, payload); err != nil {
			return err
		}
		if crc32.ChecksumIEEE(payload) != sum {
			break // corrupt record: drop it and everything after
		}
		s.indexPayload(payload, ref{off: off + headerLen, n: int(n)})
		off += headerLen + int64(n)
		s.noteDurableLocked(off, hdr[:], payload)
		s.stats.Records++
	}
	if off < total {
		s.stats.TruncatedBytes = total - off
		if err := s.f.Truncate(off); err != nil {
			return err
		}
	}
	s.size = off
	s.stats.Bytes = off
	_, err = s.f.Seek(off, io.SeekStart)
	return err
}

// indexPayload registers one verified record. Other kinds and malformed
// payloads that pass the checksum (a bug, not corruption) are skipped
// rather than trusted.
func (s *Store) indexPayload(payload []byte, r ref) {
	kind, key, ok := decodeRecord(payload)
	if !ok {
		return
	}
	idx, fp := s.keyed(kind), fnv64(key)
	idx[fp] = append(idx[fp], r)
}

// keyed returns the index of records of the given kind, 'V' or 'W'.
func (s *Store) keyed(kind byte) map[uint64][]ref {
	if kind == recWitness {
		return s.witness
	}
	return s.index
}

// lookup returns the value of the first record of the given kind ('V' or
// 'W') stored under key. The index buckets on a 64-bit fingerprint; every
// candidate is confirmed by reading its record back and comparing the full
// key, so a fingerprint collision degrades to a read, never to a wrong
// answer. It counts nothing: Stats.Hits and Misses count LookupVerdict
// calls only, not the dedupe probes of appends.
func (s *Store) lookup(kind byte, key string) ([]byte, bool) {
	fp := fnv64(key)
	s.mu.Lock()
	refs := s.keyed(kind)[fp]
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil, false
	}
	for _, r := range refs {
		payload := make([]byte, r.n)
		if _, err := s.f.ReadAt(payload, r.off); err != nil {
			break
		}
		if k, val, ok := decodeKeyed(payload, kind); ok && string(k) == key {
			return val, true
		}
	}
	return nil, false
}

// lookupVerdict is LookupVerdict without the hit and miss counts.
func (s *Store) lookupVerdict(key string) (valid, ok bool) {
	val, ok := s.lookup(recVerdict, key)
	return ok && val[0] == 1, ok
}

// LookupVerdict returns the stored verdict for the canonical obligation key,
// if any, confirmed on the full key (see lookup).
func (s *Store) LookupVerdict(key string) (valid, ok bool) {
	valid, ok = s.lookupVerdict(key)
	s.mu.Lock()
	if ok {
		s.stats.Hits++
	} else {
		s.stats.Misses++
	}
	s.mu.Unlock()
	return valid, ok
}

// AppendVerdict queues a definite verdict for the canonical obligation key.
// The write is behind: it may be lost to a crash or a full queue, which only
// costs a future re-proof. Duplicate keys are skipped best-effort (the log
// is append-only; the first record for a key wins on lookup anyway).
func (s *Store) AppendVerdict(key string, valid bool) {
	if v, ok := s.lookupVerdict(key); ok && v == valid {
		return
	}
	s.enqueue(pending{payload: encodeVerdict(key, valid), key: key, kind: recVerdict})
}

// LookupWitness returns the stored counterexample witness bytes for a
// normalized pair key, if any. Like LookupVerdict, candidates are confirmed
// by reading the full key back, so a fingerprint collision degrades to a
// read. The store does not interpret the bytes; callers must replay the
// decoded witness against the pair before trusting it — corruption here can
// only lose a witness (the pair is re-refuted), never fabricate one.
func (s *Store) LookupWitness(key string) ([]byte, bool) {
	return s.lookup(recWitness, key)
}

// AppendWitness queues a counterexample witness for a normalized pair key.
// Same write-behind contract as AppendVerdict: a crash or full queue loses
// the record and costs a future re-search, nothing more. The first stored
// witness for a key wins on lookup; duplicates are skipped best-effort.
func (s *Store) AppendWitness(key string, data []byte) {
	if key == "" || len(data) == 0 {
		return
	}
	if _, ok := s.lookup(recWitness, key); ok {
		return
	}
	s.enqueue(pending{payload: encodeWitness(key, data), key: key, kind: recWitness})
}

// enqueue hands p to the writer, or drops it on a closed store or a full
// queue: losing the record is sound, blocking is not. The closed check and
// the send are one step under s.mu, so no record enters the queue behind
// Close's stop sentinel, where it would be neither written nor dropped.
func (s *Store) enqueue(p pending) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		select {
		case s.queue <- p:
			return
		default:
		}
	}
	s.stats.Dropped++
}

func (s *Store) drop() {
	s.mu.Lock()
	s.stats.Dropped++
	s.mu.Unlock()
}

// writer drains the write-behind queue until Close's stop sentinel (a zero
// pending). Injected faults at store-append are confined here: a panic
// tears the current record (recovered, writer keeps going), a cancel skips
// the write. Both only lose the record.
func (s *Store) writer() {
	defer close(s.done)
	for p := range s.queue {
		switch {
		case p.payload != nil:
			s.writeOne(p)
		case p.ackCh != nil:
			close(p.ackCh)
		default:
			return
		}
	}
}

// writeOne durably writes one record, reporting whether it landed (false:
// dropped to a fault, a write error, or a closed store).
func (s *Store) writeOne(p pending) (wrote bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(*fault.Error); !ok {
				panic(r) // a real bug: do not swallow it
			}
			s.drop()
			wrote = false
		}
	}()
	hdr := make([]byte, headerLen)
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(p.payload)))
	binary.BigEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(p.payload))

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.stats.Dropped++
		return false
	}
	off := s.size
	if _, err := s.f.WriteAt(hdr, off); err != nil {
		s.stats.Dropped++
		return false
	}
	// The torn-write window: header on disk, payload not yet. A panic here
	// leaves exactly the tail scan() truncates; a cancel models a skipped
	// fsync — the record is abandoned and the header overwritten by the
	// next append.
	switch fault.Inject(fault.StoreAppend) {
	case fault.Cancel:
		s.stats.Dropped++
		return false
	}
	if _, err := s.f.WriteAt(p.payload, off+headerLen); err != nil {
		s.stats.Dropped++
		return false
	}
	s.size = off + headerLen + int64(len(p.payload))
	s.stats.Records++
	s.stats.Bytes = s.size
	s.stats.Appends++
	s.noteDurableLocked(s.size, hdr, p.payload)
	idx, fp := s.keyed(p.kind), fnv64(p.key)
	idx[fp] = append(idx[fp], ref{off: off + headerLen, n: len(p.payload)})
	return true
}

// Flush blocks until every append queued before the call is durably written
// (or dropped): it rides a sentinel through the FIFO queue and waits for the
// writer to reach it. It exists for tests and for Close. The send may block
// on a full queue, so it cannot hold s.mu (the writer takes it); it is safe
// against Close because the queue is never closed, and a sentinel queued
// behind Close's stop returns when the writer exits.
func (s *Store) Flush() {
	ack := make(chan struct{})
	select {
	case s.queue <- pending{ackCh: ack}:
		select {
		case <-ack:
		case <-s.done:
		}
	case <-s.done:
	}
}

// Close flushes the queue and closes the file. Further lookups miss and
// further appends drop.
func (s *Store) Close() error {
	s.Flush()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.queue <- pending{} // stop the writer behind everything queued so far
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.f.Sync()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Snapshot copies the stats out.
func (s *Store) Snapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// --- record encoding -------------------------------------------------------

// encodeVerdict: 'V' | uvarint(len(key)) | key | verdictByte.
func encodeVerdict(key string, valid bool) []byte {
	buf := make([]byte, 0, 1+binary.MaxVarintLen64+len(key)+1)
	buf = append(buf, recVerdict)
	buf = binary.AppendUvarint(buf, uint64(len(key)))
	buf = append(buf, key...)
	if valid {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	return buf
}

// decodeRecord returns the kind and key of a well-formed 'V' or 'W' payload;
// any other kind, such as an old log's 'L' records, is not ok. The key
// aliases payload.
func decodeRecord(payload []byte) (kind byte, key []byte, ok bool) {
	if len(payload) == 0 {
		return 0, nil, false
	}
	kind = payload[0]
	if kind != recVerdict && kind != recWitness {
		return 0, nil, false
	}
	key, _, ok = decodeKeyed(payload, kind)
	return kind, key, ok
}

// decodeKeyed splits a 'V' or 'W' payload of the given kind into its key
// and its value: one verdict byte (0 or 1), or one or more witness bytes.
// Both slices alias payload.
func decodeKeyed(payload []byte, kind byte) (key, val []byte, ok bool) {
	if len(payload) < 3 || payload[0] != kind {
		return nil, nil, false
	}
	rest := payload[1:]
	n, w := binary.Uvarint(rest)
	if w <= 0 || n >= maxRecordLen || uint64(len(rest)-w) < n+1 {
		return nil, nil, false
	}
	key, val = rest[w:w+int(n)], rest[w+int(n):]
	if kind == recVerdict && (len(val) != 1 || val[0] > 1) {
		return nil, nil, false
	}
	return key, val, true
}

// encodeWitness: 'W' | uvarint(len(key)) | key | data. The data bytes are
// opaque to the store (the refute package's serialized witness).
func encodeWitness(key string, data []byte) []byte {
	buf := make([]byte, 0, 1+binary.MaxVarintLen64+len(key)+len(data))
	buf = append(buf, recWitness)
	buf = binary.AppendUvarint(buf, uint64(len(key)))
	buf = append(buf, key...)
	buf = append(buf, data...)
	return buf
}

// --- hashing ---------------------------------------------------------------

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnv64[T string | []byte](s T) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}
