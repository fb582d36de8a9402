package dfs

import "time"

// FaultPlan is the seeded, deterministic fault-injection layer the
// chaos acceptance suite drives, extending the KillDataNode /
// CorruptSidecarByte / TruncateSidecar hooks with in-band faults:
//
//   - transient read errors: an attempt-indexed hash of (Seed, block id,
//     attempt) decides which replica read attempts fail, so the outcome
//     per block is identical run-to-run regardless of goroutine
//     interleaving — either a read deterministically succeeds at some
//     retry, or deterministically exhausts its budget. Fixed-seed
//     reports therefore stay bit-identical with the fault on or off
//     whenever every block clears within the retry budget.
//   - slow replicas: reads landing on SlowNodes sleep SlowDelay — a
//     pure timing fault that must never change an answer.
//   - crash at commit point k (+ optionally a torn final write): the
//     k-th commit "loses power" mid-write. The filesystem refuses
//     further mutations with ErrCrashed and JournalBytes returns the
//     crash image — k-1 durable commits, plus a half-written frame of
//     commit k when TornTail is set — for Recover to replay.
type FaultPlan struct {
	Seed uint64
	// ReadErrorRate is the per-(block, attempt) probability in [0, 1)
	// that a replica read attempt fails with ErrUnavailable.
	ReadErrorRate float64
	// SlowNodes lists DataNode ids whose reads sleep SlowDelay.
	SlowNodes []int
	SlowDelay time.Duration
	// CrashAtCommit, when > 0, crashes the filesystem while writing the
	// commit with that sequence number. TornTail leaves the half-written
	// record in the journal image.
	CrashAtCommit int64
	TornTail      bool
}

// SetFaultPlan installs plan (nil clears injection). The plan is copied;
// later mutation of the caller's struct has no effect, and the installed
// copy is never written: reads consult it without a lock.
func (fs *FileSystem) SetFaultPlan(plan *FaultPlan) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if plan == nil {
		fs.faults.Store(nil)
		return
	}
	dup := *plan
	dup.SlowNodes = append([]int(nil), plan.SlowNodes...)
	fs.faults.Store(&dup)
}

// readErrorFires reports whether the injected transient read fault
// strikes this (block, attempt) pair. Pure function of the plan seed —
// no shared state, so concurrent readers agree and outcomes do not
// depend on scheduling. The seed goes through a full finalizer
// (SplitMix64's) before it is combined: XORed in raw, nearby seeds
// would differ only in low bits that one mixing round barely spreads,
// and inject nearly the same faults.
func (fp *FaultPlan) readErrorFires(blockID int64, attempt int) bool {
	if fp.ReadErrorRate <= 0 {
		return false
	}
	h := fp.Seed + 0x9e3779b97f4a7c15
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	h ^= h >> 31
	h ^= uint64(blockID) * 0x9e3779b97f4a7c15
	h ^= uint64(attempt+1) * 0xbf58476d1ce4e5b9
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return float64(h>>11)/(1<<53) < fp.ReadErrorRate
}

// slowNode reports whether node id is on the slow list.
func (fp *FaultPlan) slowNode(id int) bool {
	for _, n := range fp.SlowNodes {
		if n == id {
			return true
		}
	}
	return false
}
