package sampling

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/dfs"
)

// Reservoir is the classic Algorithm-R reservoir sampler the paper
// rejects as a primary mechanism because "the entire dataset needs to be
// read, and possibly re-read when further samples are required" (§3.3).
// It is kept as the uniformity gold standard in the sampler ablation.
type Reservoir struct {
	k      int
	seen   int64
	sample []string
	rng    *rand.Rand
}

// NewReservoir creates a reservoir of capacity k.
func NewReservoir(k int, seed uint64) (*Reservoir, error) {
	if k <= 0 {
		return nil, fmt.Errorf("sampling: reservoir capacity must be positive, got %d", k)
	}
	return &Reservoir{k: k, rng: rand.New(rand.NewPCG(seed, 0xa54ff53a5f1d36f1))}, nil
}

// Add offers one record to the reservoir.
func (r *Reservoir) Add(record string) {
	r.seen++
	if len(r.sample) < r.k {
		r.sample = append(r.sample, record)
		return
	}
	j := r.rng.Int64N(r.seen)
	if j < int64(r.k) {
		r.sample[j] = record
	}
}

// Sample returns the current reservoir contents (at most k records).
func (r *Reservoir) Sample() []string {
	out := make([]string, len(r.sample))
	copy(out, r.sample)
	return out
}

// BlockSample reads nBlocks whole splits chosen uniformly at random and
// returns every record in them — the naive solution of §3.3 whose sample
// "will not produce a uniformly random sample because each of the Bi …
// can contain dependencies". It is the biased baseline in the sampler
// ablation: accurate on shuffled layouts, badly skewed on clustered ones.
func BlockSample(fsys *dfs.FileSystem, path string, splitSize int64, nBlocks int, seed uint64) ([]string, error) {
	splits, err := fsys.Splits(path, splitSize)
	if err != nil {
		return nil, err
	}
	if nBlocks > len(splits) {
		nBlocks = len(splits)
	}
	rng := rand.New(rand.NewPCG(seed, 0x510e527fade682d1))
	perm := rng.Perm(len(splits))
	var out []string
	for _, si := range perm[:nBlocks] {
		rd, err := fsys.NewLineReader(splits[si], 0)
		if err != nil {
			return nil, err
		}
		for rd.Next() {
			out = append(out, rd.Text())
		}
		if rd.Err() != nil {
			return nil, rd.Err()
		}
	}
	return out, nil
}
