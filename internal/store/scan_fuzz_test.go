package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// preadScan is the reference for Open's scan: the log loop as it stood
// before scan became one buffered sequential read, with two preads and
// one allocation per record. The loop is verbatim except where it ends a
// record: it collects the accepted payload instead of indexing it.
func preadScan(f io.ReaderAt, total int64) (payloads [][]byte, end int64, err error) {
	var off int64
	hdr := make([]byte, headerLen)
	for off < total {
		if total-off < headerLen {
			break // torn header
		}
		if _, err := f.ReadAt(hdr, off); err != nil {
			return nil, 0, err
		}
		n := binary.BigEndian.Uint32(hdr[:4])
		sum := binary.BigEndian.Uint32(hdr[4:])
		if n == 0 || n > maxRecordLen || off+headerLen+int64(n) > total {
			break // torn or absurd payload
		}
		payload := make([]byte, n)
		if _, err := f.ReadAt(payload, off+headerLen); err != nil {
			return nil, 0, err
		}
		if crc32.ChecksumIEEE(payload) != sum {
			break // corrupt record: drop it and everything after
		}
		payloads = append(payloads, payload)
		off += headerLen + int64(n)
	}
	return payloads, off, nil
}

// frame lays payloads out as log records.
func frame(payloads ...[]byte) []byte {
	var out []byte
	for _, p := range payloads {
		out = binary.BigEndian.AppendUint32(out, uint32(len(p)))
		out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(p))
		out = append(out, p...)
	}
	return out
}

// FuzzStoreOpen writes arbitrary bytes as a log and holds Open to the
// reference scan: Open never panics, accepts exactly the records
// preadScan accepts (counts, bytes, truncation and the file length it
// leaves), and answers every accepted record's key with the first
// record's value, bytes or lemmas.
func FuzzStoreOpen(f *testing.F) {
	valid := frame(
		encodeVerdict("(and a b)", true),
		encodeWitness("table(EMP)", []byte(`{"seed":7}`)),
		encodeLemma([]LemmaLit{{AtomKey: "(< x y)", Pos: true}, {AtomKey: "(= x y)"}}),
		encodeVerdict("(and a b)", false),
		encodeVerdict("(or a b)", false),
		encodeLemma([]LemmaLit{{AtomKey: "(= x y)"}, {AtomKey: "(< x y)", Pos: true}}),
	)
	// One record longer than scan's buffer, so a payload spans refills.
	long := frame(encodeVerdict("k", true), encodeWitness("big", bytes.Repeat([]byte("w"), scanBufSize+100)), encodeVerdict("after", true))
	flipped := append([]byte(nil), valid...)
	flipped[headerLen+len(encodeVerdict("(and a b)", true))+5] ^= 0xff // the second record's CRC
	zero := append(frame(encodeVerdict("z", true)), 0, 0, 0, 0, 0, 0, 0, 0)
	absurd := append(frame(encodeVerdict("z", true)), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 'V')
	malformed := frame([]byte{recVerdict, 1, 'k', 7}, []byte{recWitness, 5, 'k'}, []byte{'?', 1, 2}, []byte{recLemma, 0})
	for _, seed := range [][]byte{nil, valid, valid[:len(valid)-3], valid[:5], long, long[:len(long)-50], flipped, zero, absurd, malformed} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		payloads, end, err := preadScan(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "fuzz.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(path)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer s.Close()

		st := s.Snapshot()
		if st.Records != int64(len(payloads)) || st.Bytes != end || st.TruncatedBytes != int64(len(data))-end {
			t.Fatalf("Open: records %d, bytes %d, truncated %d; reference: %d, %d, %d",
				st.Records, st.Bytes, st.TruncatedBytes, len(payloads), end, int64(len(data))-end)
		}
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() != end {
			t.Fatalf("log left at %d bytes, want %d", info.Size(), end)
		}

		verdicts := map[string]bool{}
		witnesses := map[string][]byte{}
		var lemmas [][]LemmaLit
		seen := map[uint64]bool{}
		for _, p := range payloads {
			switch p[0] {
			case recVerdict, recWitness:
				k, val, ok := decodeKeyed(p, p[0])
				if !ok {
					continue
				}
				if p[0] == recVerdict {
					if _, dup := verdicts[string(k)]; !dup {
						verdicts[string(k)] = val[0] == 1
					}
				} else if _, dup := witnesses[string(k)]; !dup {
					witnesses[string(k)] = val
				}
			case recLemma:
				if lits, ok := decodeLemma(p); ok && !seen[lemmaFingerprint(lits)] {
					seen[lemmaFingerprint(lits)] = true
					lemmas = append(lemmas, lits)
				}
			}
		}
		for k, want := range verdicts {
			if got, ok := s.LookupVerdict(k); !ok || got != want {
				t.Errorf("LookupVerdict(%q) = %v, %v; want %v", k, got, ok, want)
			}
		}
		for k, want := range witnesses {
			if got, ok := s.LookupWitness(k); !ok || !bytes.Equal(got, want) {
				t.Errorf("LookupWitness(%q) = %q, %v; want %q", k, got, ok, want)
			}
		}
		if got := s.Lemmas(); len(got) != len(lemmas) || len(got) > 0 && !reflect.DeepEqual(got, lemmas) {
			t.Fatalf("Lemmas() = %v, want %v", got, lemmas)
		}
	})
}
