package faults

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/rng"
)

// DiskConfig sets the disk-fault plan. The zero value injects nothing.
// Write faults model a crash: once the torn-write cut fires, every later
// write fails too — a process does not keep appending after the power
// goes out. Read faults model media rot: bits flip and tails vanish
// underneath an otherwise healthy process.
type DiskConfig struct {
	// Seed makes the read-fault stream deterministic; 0 means seed 1.
	Seed int64

	// TornWrite cuts the write stream at TornWriteAtByte, a global byte
	// offset across all faulted writes: bytes before the cut reach disk,
	// bytes at or after it are lost, and every subsequent write fails.
	// Sweeping the cut across every offset is the crash-recovery
	// property test.
	TornWrite       bool
	TornWriteAtByte int64

	// ENOSPC fails any write that would push total written bytes past
	// ENOSPCAfterBytes with a disk-full error (nothing partial: the
	// graceful-degradation case, not the corruption case).
	ENOSPC           bool
	ENOSPCAfterBytes int64

	// BitFlipP flips one uniformly random bit per read at this
	// probability — the checksum quarantine's natural predator.
	BitFlipP float64
	// ShortReadP zeroes a uniformly random tail of the read buffer at
	// this probability.
	ShortReadP float64
}

// DiskInjector produces the store's DiskConfig.WriteFault / ReadFault
// hooks from one seeded stream. Safe for concurrent use.
type DiskInjector struct {
	cfg DiskConfig

	mu      sync.Mutex
	state   uint64
	written int64 // global bytes accepted so far
	crashed bool  // torn cut fired: all writes fail from here on

	tornWrites atomic.Uint64
	enospcs    atomic.Uint64
	bitFlips   atomic.Uint64
	shortReads atomic.Uint64
}

// DiskSnapshot is the disk injector's ledger.
type DiskSnapshot struct {
	TornWrites uint64 `json:"torn_writes"`
	ENOSPCs    uint64 `json:"enospcs"`
	BitFlips   uint64 `json:"bit_flips"`
	ShortReads uint64 `json:"short_reads"`
}

// NewDiskInjector builds a disk injector; nil when cfg injects nothing.
func NewDiskInjector(cfg DiskConfig) *DiskInjector {
	if !cfg.TornWrite && !cfg.ENOSPC && cfg.BitFlipP <= 0 && cfg.ShortReadP <= 0 {
		return nil
	}
	seed := uint64(cfg.Seed)
	if seed == 0 {
		seed = 1
	}
	return &DiskInjector{cfg: cfg, state: seed}
}

func (di *DiskInjector) next() uint64 {
	di.state += rng.Golden
	return rng.Mix64(di.state)
}

func (di *DiskInjector) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return float64(di.next()>>11)/(1<<53) < p
}

// WriteFault returns the store hook deciding each record append's fate.
// Nil on a nil injector or when no write faults are configured, so the
// store pays nothing.
func (di *DiskInjector) WriteFault() func(rec []byte) (int, error) {
	if di == nil || (!di.cfg.TornWrite && !di.cfg.ENOSPC) {
		return nil
	}
	return func(rec []byte) (int, error) {
		di.mu.Lock()
		defer di.mu.Unlock()
		if di.crashed {
			return 0, fmt.Errorf("injected fault: disk gone after torn write")
		}
		n := int64(len(rec))
		if di.cfg.ENOSPC && di.written+n > di.cfg.ENOSPCAfterBytes {
			di.enospcs.Add(1)
			return 0, fmt.Errorf("injected fault: no space left on device")
		}
		if di.cfg.TornWrite && di.written+n > di.cfg.TornWriteAtByte {
			keep := di.cfg.TornWriteAtByte - di.written
			if keep < 0 {
				keep = 0
			}
			di.written += keep
			di.crashed = true
			di.tornWrites.Add(1)
			return int(keep), fmt.Errorf("injected fault: torn write at byte %d", di.cfg.TornWriteAtByte)
		}
		di.written += n
		return len(rec), nil
	}
}

// ReadFault returns the store hook corrupting read buffers in place: one
// random bit flip and/or a zeroed random tail, each by its own draw. Nil
// when no read faults are configured.
func (di *DiskInjector) ReadFault() func(b []byte) {
	if di == nil || (di.cfg.BitFlipP <= 0 && di.cfg.ShortReadP <= 0) {
		return nil
	}
	return func(b []byte) {
		if len(b) == 0 {
			return
		}
		di.mu.Lock()
		flip := di.roll(di.cfg.BitFlipP)
		var flipAt uint64
		if flip {
			flipAt = di.next()
		}
		short := di.roll(di.cfg.ShortReadP)
		var shortAt uint64
		if short {
			shortAt = di.next()
		}
		di.mu.Unlock()
		if flip {
			bit := flipAt % uint64(len(b)*8)
			b[bit/8] ^= 1 << (bit % 8)
			di.bitFlips.Add(1)
		}
		if short {
			from := int(shortAt % uint64(len(b)))
			for i := from; i < len(b); i++ {
				b[i] = 0
			}
			di.shortReads.Add(1)
		}
	}
}

// Snapshot reads the ledger. Safe on a nil injector (all zeros).
func (di *DiskInjector) Snapshot() DiskSnapshot {
	if di == nil {
		return DiskSnapshot{}
	}
	return DiskSnapshot{
		TornWrites: di.tornWrites.Load(),
		ENOSPCs:    di.enospcs.Load(),
		BitFlips:   di.bitFlips.Load(),
		ShortReads: di.shortReads.Load(),
	}
}
