package store

import (
	"encoding/binary"

	"repro/internal/framelog"
)

// Segment log layout. A segment (and a hinted-handoff file) is an 8-byte
// magic followed by framelog frames whose 16-byte head is the key:
//
//	[payloadLen u32 LE][crc32c u32 LE][keyHi u64 LE][keyLo u64 LE][payload]
//
// The checksum covers key and payload, so a flipped bit in either is
// detected. framelog owns the framing, the torn-tail rule and the scan.
const (
	segMagic   = "suustor1"
	keyHeadLen = 16
	// maxPayload bounds the length field so a corrupt frame cannot make
	// the rebuild attempt a giant allocation or skip past real records.
	maxPayload = 64 << 20
)

// frameRecord frames v under k's head in one allocation.
func frameRecord(k Key, v []byte) []byte {
	var head [keyHeadLen]byte
	binary.LittleEndian.PutUint64(head[0:8], k.Hi)
	binary.LittleEndian.PutUint64(head[8:16], k.Lo)
	return framelog.Append(make([]byte, 0, framelog.Size(keyHeadLen, len(v))), head[:], v)
}

// headKey decodes a record's key head.
func headKey(head []byte) Key {
	return Key{Hi: binary.LittleEndian.Uint64(head[0:8]), Lo: binary.LittleEndian.Uint64(head[8:16])}
}

// parseRecord re-verifies a record read back from its index location: b
// must be exactly one intact frame carrying key k. It returns the payload,
// aliasing b.
func parseRecord(b []byte, k Key) ([]byte, error) {
	head, payload, n, err := framelog.Parse(b, keyHeadLen, maxPayload)
	if err == nil && (n != len(b) || headKey(head) != k) {
		err = framelog.ErrBadCRC
	}
	return payload, err
}
