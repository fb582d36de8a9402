package dfs

import (
	"fmt"

	"repro/internal/journal"
)

// RecoverStats reports what Recover found and rebuilt.
type RecoverStats struct {
	Commits      int64 // fully committed records replayed
	Bytes        int64 // clean journal bytes retained
	TornTail     bool  // a torn final record was detected and truncated
	DroppedBytes int64 // journal bytes dropped past the truncation point
	Files        int   // files live after replay
	Sidecars     int   // columnar sidecars rebuilt by the replayed ingest
}

// Recover replays a journal image (JournalBytes of a previous
// filesystem — typically a crash image) onto a fresh filesystem built
// with cfg. Replay funnels every record through the same validate +
// commit path live mutations take, so the reconstructed namespace —
// file bytes, segments, write generations, sidecars — is deterministic:
// the same cfg.Seed and the same commit sequence reproduce the same
// state, bit for bit where it matters (a replay under a different live
// node set can place replicas differently, which no read can observe).
//
// A torn final record — the shape a crash during the last commit's
// write leaves — is truncated cleanly and reported in the stats: the
// recovered state is the last fully committed prefix, never a
// half-applied mutation. Interior journal corruption is refused with an
// error wrapping journal.ErrCorrupt.
func Recover(cfg Config, image []byte) (*FileSystem, RecoverStats, error) {
	recs, rst, err := journal.Replay(image)
	if err != nil {
		return nil, RecoverStats{}, fmt.Errorf("dfs: recover: %w", err)
	}
	st := RecoverStats{
		Commits:      rst.Records,
		Bytes:        rst.Bytes,
		TornTail:     rst.TornTail,
		DroppedBytes: rst.DroppedTail,
	}
	fs := New(cfg)
	for _, rec := range recs {
		switch rec.Op {
		case journal.OpWrite:
			err = fs.WriteFile(rec.Path, rec.Data)
		case journal.OpAppend:
			err = fs.Append(rec.Path, rec.Data)
		case journal.OpDelete:
			err = fs.Delete(rec.Path)
		default:
			err = fmt.Errorf("unknown op %v", rec.Op)
		}
		if err != nil {
			return nil, st, fmt.Errorf("dfs: recover: replay commit %d (%v %s): %w",
				rec.Seq, rec.Op, rec.Path, err)
		}
	}
	for _, path := range fs.List("") {
		st.Files++
		if size, ok := fs.SidecarStat(path); ok && size > 0 {
			st.Sidecars++
		}
	}
	fs.mu.Lock()
	fs.recovered = &st
	fs.mu.Unlock()
	return fs, st, nil
}

// JournalBytes returns a copy of the commit journal image — what a
// durable deployment would have on disk, including any torn final
// record an injected crash left. Recover replays it.
func (fs *FileSystem) JournalBytes() []byte {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.jlog.Bytes()
}

// JournalStats is the point-in-time journal health snapshot earld
// surfaces in /metrics.
type JournalStats struct {
	Commits int64 `json:"commits"` // committed records in the journal
	Bytes   int64 `json:"bytes"`   // journal size in bytes
	Pins    int   `json:"pins"`    // snapshots taken and not yet released
	// Recovered is true when this filesystem was built by Recover;
	// Recovery then carries what the replay found.
	Recovered bool         `json:"recovered"`
	Recovery  RecoverStats `json:"recovery,omitzero"`
}

// JournalStats snapshots the journal counters.
func (fs *FileSystem) JournalStats() JournalStats {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	st := JournalStats{
		Commits: fs.jlog.Records(),
		Bytes:   fs.jlog.Size(),
		Pins:    int(fs.pins.Load()),
	}
	if fs.recovered != nil {
		st.Recovered = true
		st.Recovery = *fs.recovered
	}
	return st
}
