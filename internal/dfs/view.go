package dfs

import (
	"fmt"
	"sync/atomic"

	"repro/internal/simcost"
)

// View is the read contract: what a scan, a sampler or a maintained
// query reads of the filesystem, with no mutation entry points, and
// what every implementation must carry. Both *FileSystem (always the
// live state) and *Snapshot (one held commit) implement it, so any
// reader can be pointed at "now" or at a consistent frozen world with
// the same code. A whole-file read (ReadFile), a listing (List) and a
// copying sidecar read (ReadSidecarAt) are on both but outside the
// contract: no reader of a View makes them.
type View interface {
	ReadAt(path string, off int64, p []byte) (int, error)
	Stat(path string) (int64, error)
	Version(path string) (int64, error)
	// State is Version and Stat from one commit: what a maintained
	// query or a cached result records as the bytes it covered.
	State(path string) (FileState, error)
	Splits(path string, splitSize int64) ([]Split, error)
	NewLineReader(split Split, chunkSize int) (*LineReader, error)
	ReadLineAt(path string, pos int64, chunkSize int) (line string, lineStart int64, err error)
	ReadLinesAt(path string, positions []int64, chunkSize int, fn func(i int, line []byte, lineStart int64, err error) (more bool, fail error)) error
	SidecarStat(path string) (int64, bool)
	ViewSidecarAt(path string, off, size int64) ([]byte, error)
}

// Compile-time checks: both implementations satisfy the full surface.
var (
	_ View = (*FileSystem)(nil)
	_ View = (*Snapshot)(nil)
)

// Snapshot is one commit of the filesystem, held: every read resolves
// against the namespace exactly as it was when the snapshot was taken,
// no matter what WriteFile/Append/Delete commits land afterwards. It is
// a value — the namespace that commit published, whose View methods it
// has by embedding — so it costs one small allocation, copies nothing,
// is safe for concurrent use, and keeps alive exactly what it can
// reach: that commit's file states, and through them their blocks'
// journal frames. Taking, reading and releasing one take no lock.
type Snapshot struct {
	state
	released atomic.Bool
}

// Snapshot returns a View of the current commit, its reads charged to
// the filesystem's own metrics, and counts it in JournalStats.Pins until
// it is released.
func (fs *FileSystem) Snapshot() *Snapshot { return fs.Pin(fs.metrics) }

// Pin is Snapshot with every read through the snapshot charged to
// ledger instead: one run's, a child of the filesystem's metrics, so the
// run's ledger holds its own reads and the filesystem's still sees them
// all.
func (fs *FileSystem) Pin(ledger *simcost.Metrics) *Snapshot {
	fs.pins.Add(1)
	return &Snapshot{state: state{fs: fs, ns: fs.ns.Load(), ledger: ledger}}
}

// Seq returns the commit sequence this snapshot holds.
func (s *Snapshot) Seq() int64 { return s.ns.seq }

// Release takes the snapshot out of the Pins count — the caller's
// statement that it is done, which the leak checks and /metrics read.
// It frees nothing itself and the snapshot still reads its commit
// afterwards: the held state goes when the last reference to the
// snapshot does. Idempotent.
func (s *Snapshot) Release() {
	if !s.released.Swap(true) {
		s.fs.pins.Add(-1)
	}
}

// String implements fmt.Stringer for log lines.
func (s *Snapshot) String() string { return fmt.Sprintf("snapshot@%d", s.ns.seq) }
