package aes

import "repro/internal/stats"

// newRNG builds the package's deterministic PCG stream for a seed.
func newRNG(seed uint64) *stats.PCG {
	return stats.NewPCG(seed, 0x71374491428a2f98)
}
