package journal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// appendEntry appends one entry in the segment layout: payload length,
// CRC32 of the payload, payload.
func appendEntry(b, payload []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	return append(b, payload...)
}

// segment builds a segment image holding the given payloads.
func segment(payloads ...string) []byte {
	b := []byte(magic)
	for _, p := range payloads {
		b = appendEntry(b, []byte(p))
	}
	return b
}

// FuzzJournalScan holds the segment scanner to its contract on
// arbitrary bytes: it never panics and never claims more than the image
// as valid; on a journal image, the entries it returns re-encode to
// exactly the valid prefix, and the image is torn exactly when bytes
// follow that prefix.
func FuzzJournalScan(f *testing.F) {
	// The TestJournalTornTail image and some of its cuts.
	torn := segment("first", "second", "torn-away")
	intact := len(segment("first", "second"))
	for _, cut := range []int{0, 3, headerSize, intact, intact + 1, intact + entryHead, len(torn) - 1, len(torn)} {
		f.Add(torn[:cut])
	}
	// The TestJournalCorruptPayload image: the last payload byte flipped.
	corrupt := segment("keep", "damage")
	corrupt[len(corrupt)-1] ^= 0xff
	f.Add(corrupt)
	f.Add([]byte("definitely not a journal"))

	f.Fuzz(func(t *testing.T, data []byte) {
		valid, entries, torn, err := scan(data)
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid = %d outside [0, %d]", valid, len(data))
		}
		if len(data) < headerSize || string(data[:headerSize]) != magic {
			return
		}
		if err != nil {
			t.Fatalf("journal image rejected: %v", err)
		}
		re := []byte(magic)
		for _, e := range entries {
			re = appendEntry(re, e)
		}
		if !bytes.Equal(re, data[:valid]) {
			t.Fatalf("re-encoded entries (%d bytes) differ from the valid prefix (%d bytes)", len(re), valid)
		}
		if want := valid < int64(len(data)); torn != want {
			t.Fatalf("torn = %v with %d of %d bytes valid", torn, valid, len(data))
		}
	})
}
