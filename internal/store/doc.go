// Package store is the durable, replicated plan store under the suud
// fleet: content-addressed storage for finished plan and estimate
// payloads, with a mem tier (an internal/lru cache charged payload bytes),
// a disk tier (append-only checksummed segment log), and a replicated
// tier (consistent hashing over a static replica set), composable via
// Tiered. The service layers it under its response cache as
// read-through/write-behind tiers.
//
// # Consistency model
//
// A Key is a 128-bit digest of everything that determines the answer, so
// a value is a pure function of its key: replicas can never disagree,
// every write of a key carries the same bytes, and replication needs no
// versioning, no conflict resolution, and no read-repair ordering.
// Idempotence is the whole protocol — hinted handoff may deliver twice,
// anti-entropy may race a fan-out, a crashed compaction may leave
// duplicate records, and all of it is harmless by construction. The
// operational stance mirrors the paper's: every stored byte and every
// peer is a prediction that may be wrong, and the system's job is to
// keep making progress when it is.
//
// # Durability (disk tier)
//
// Records append to segment files as internal/framelog frames whose head
// is the key, [len][crc32c][keyHi][keyLo][payload]; the checksum covers
// key and payload, and framelog's scan rebuilds the index on open.
// Fsync policy decides the crash window: FsyncAlways means a
// nil Put survives power loss; FsyncInterval (default) bounds machine-
// crash loss to the last interval; FsyncNever still survives process
// crashes (the page cache persists) and stays *consistent* under machine
// crashes — the rebuild just sees a shorter committed prefix.
//
// # Quarantine
//
// A quarantined record is one the store refuses to serve because its
// bytes cannot be trusted: a torn tail (crash mid-append), an implausible
// length field (framing lost), or a checksum mismatch (bit rot), found
// either at the open-time rebuild or on a read. Quarantine means counted
// in Stats.CorruptDropped and treated as a miss — the worst outcome of
// corruption is a recompute, never a wrong answer and never a crash.
// Only the damaged record is lost; everything before and (for CRC
// failures) after it keeps serving.
//
// # Replication, handoff, and warm-up
//
// Each key has R owners on a consistent-hash ring over the static peer
// set. A local miss reads through the remote owners and warms the local
// tiers; a local write fans out to the owners asynchronously. An owner
// that is down gets its writes as hints in a per-peer queue (persisted
// to disk when configured) that drains when it returns — at-least-once
// delivery, bounded by a cap that drops (and counts) overflow rather
// than block the write path. On startup a replica rebuilds its disk
// index, then runs one anti-entropy pass pulling the keys it owns but
// missed while down; WaitWarm gates /readyz on both, so a rebooting
// replica never claims ready while cold. Handoff and anti-entropy are
// best-effort accelerators: the correctness backstop is always the
// read-through path plus recompute.
package store
