package dfs

import (
	"fmt"
	"sync/atomic"
)

// View is the read surface of the filesystem: everything a scan, a
// sampler or a maintained query needs, with no mutation entry points.
// Both *FileSystem (always the live state) and *Snapshot (one pinned
// commit) implement it, so any reader can be pointed at "now" or at a
// consistent frozen world with the same code.
type View interface {
	ReadAt(path string, off int64, p []byte) (int, error)
	ReadFile(path string) ([]byte, error)
	Stat(path string) (int64, error)
	Exists(path string) bool
	List(prefix string) []string
	Version(path string) (int64, error)
	Segments(path string) ([]int64, error)
	Splits(path string, splitSize int64) ([]Split, error)
	NewLineReader(split Split, chunkSize int) (*LineReader, error)
	ReadLineAt(path string, pos int64, chunkSize int) (line string, lineStart int64, err error)
	CountLines(path string) (int64, error)
	SidecarStat(path string) (int64, bool)
	ViewSidecarAt(path string, off, size int64) ([]byte, error)
	ReadSidecarAt(path string, off int64, p []byte) (int, error)
}

// Compile-time checks: both implementations satisfy the full surface.
var (
	_ View = (*FileSystem)(nil)
	_ View = (*Snapshot)(nil)
)

// Snapshot is one pinned commit of the filesystem: every read resolves
// against the namespace exactly as it was when the snapshot was taken,
// no matter what WriteFile/Append/Delete commits land afterwards. The
// superseded state a snapshot still needs survives garbage collection
// until Release. Snapshots are cheap (a refcounted sequence number, no
// copying) and safe for concurrent use; Release is idempotent. Taking
// and releasing one go through the writers' mutex; reading through one
// takes no lock.
type Snapshot struct {
	fs       *FileSystem
	seq      int64
	released atomic.Bool
}

// Snapshot pins the current commit and returns a View of it.
func (fs *FileSystem) Snapshot() *Snapshot {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	seq := fs.commitSeq.Load()
	fs.pins[seq]++
	return &Snapshot{fs: fs, seq: seq}
}

// Seq returns the commit sequence this snapshot pins.
func (s *Snapshot) Seq() int64 { return s.seq }

// Release unpins the snapshot. States visible only to it become
// garbage-collectable; reading through a released snapshot is a bug
// (reads may then see pruned state errors). Idempotent.
func (s *Snapshot) Release() {
	if s.released.Swap(true) {
		return
	}
	fs := s.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.pins[s.seq]--; fs.pins[s.seq] <= 0 {
		delete(fs.pins, s.seq)
	}
	// A state becomes prunable when the pin floor passes its successor's
	// commit. No commit landed since this pin: nothing it held back has a
	// successor. A pin at or below it remains: the floor did not move.
	if s.seq == fs.commitSeq.Load() || fs.minPinLocked() <= s.seq {
		return
	}
	fs.applyPinSweep()
}

// The View methods: each delegates to the sequence-resolved read path.

func (s *Snapshot) ReadAt(path string, off int64, p []byte) (int, error) {
	return s.fs.readAt(path, s.seq, off, p, 1)
}

func (s *Snapshot) ReadFile(path string) ([]byte, error) {
	return s.fs.readFileAt(path, s.seq)
}

func (s *Snapshot) Stat(path string) (int64, error) {
	return s.fs.statAt(path, s.seq)
}

func (s *Snapshot) Exists(path string) bool {
	return s.fs.existsAt(path, s.seq)
}

func (s *Snapshot) List(prefix string) []string {
	return s.fs.listAt(prefix, s.seq)
}

func (s *Snapshot) Version(path string) (int64, error) {
	return s.fs.versionAt(path, s.seq)
}

func (s *Snapshot) Segments(path string) ([]int64, error) {
	return s.fs.segmentsAt(path, s.seq)
}

func (s *Snapshot) Splits(path string, splitSize int64) ([]Split, error) {
	return s.fs.splitsAt(path, s.seq, splitSize)
}

func (s *Snapshot) NewLineReader(split Split, chunkSize int) (*LineReader, error) {
	return s.fs.newLineReaderAt(split, s.seq, chunkSize)
}

func (s *Snapshot) ReadLineAt(path string, pos int64, chunkSize int) (string, int64, error) {
	return s.fs.readLineAt(path, s.seq, pos, chunkSize)
}

func (s *Snapshot) CountLines(path string) (int64, error) {
	return s.fs.countLinesAt(path, s.seq)
}

func (s *Snapshot) SidecarStat(path string) (int64, bool) {
	return s.fs.sidecarStatAt(path, s.seq)
}

func (s *Snapshot) ViewSidecarAt(path string, off, size int64) ([]byte, error) {
	return s.fs.viewSidecarAt(path, s.seq, off, size)
}

func (s *Snapshot) ReadSidecarAt(path string, off int64, p []byte) (int, error) {
	return s.fs.readSidecarAt(path, s.seq, off, p)
}

// String implements fmt.Stringer for log lines.
func (s *Snapshot) String() string { return fmt.Sprintf("snapshot@%d", s.seq) }
