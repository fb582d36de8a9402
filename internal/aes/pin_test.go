package aes

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/jobs"
	"repro/internal/workload"
)

// planPins are fingerprints of SSABE's whole Plan — B, N, UseFull, the
// fitted curve, the phase-1 cv trace and every phase-2 point, floats by
// math.Float64bits — recorded at the commit before delta.Maintainer
// folded resamples in lanes. Planning got faster after it; what is
// planned must not have moved by a bit.
var planPins = map[string]uint64{
	"gaussian/mean/seed=1":        0xb33bda95e0a87b96, // B=20 N=207
	"gaussian/sum/seed=1":         0x4ab754c7e19cf8b2, // B=20 N=207
	"gaussian/variance/seed=1":    0xd4129682c2739bf8, // B=21 N=4888
	"gaussian/median/seed=1":      0x430399844311b0d4, // B=12 N=622
	"gaussian/p95/seed=1":         0x1563ffa388cb4708, // B=19 N=404
	"gaussian/mean/seed=7":        0xff3ec9b35798a730, // B=21 N=174
	"gaussian/sum/seed=7":         0x6490855eacbbb391, // B=21 N=174
	"gaussian/variance/seed=7":    0xd2506ec6357d278a, // B=21 N=5079
	"gaussian/median/seed=7":      0xdb6a2992d877dda4, // B=19 N=456
	"gaussian/p95/seed=7":         0x65c2ade7b8d4fa09, // B=22 N=567
	"gaussian/mean/seed=42":       0x4f9a8892c752b976, // B=20 N=145
	"gaussian/sum/seed=42":        0x7495cc8ebe6661b0, // B=20 N=145
	"gaussian/variance/seed=42":   0x3f566e183489f0db, // B=18 N=5833
	"gaussian/median/seed=42":     0x3d14ae805f1a354e, // B=20 N=268
	"gaussian/p95/seed=42":        0x39c4e00e51bb68d3, // B=9 N=523
	"gaussian/mean/seed=2024":     0x399323fbdced1ede, // B=12 N=190
	"gaussian/sum/seed=2024":      0x12de33c1635a0e77, // B=12 N=190
	"gaussian/variance/seed=2024": 0xb80d752ce5755b16, // B=17 N=4769
	"gaussian/median/seed=2024":   0x673e539cdea537a5, // B=19 N=550
	"gaussian/p95/seed=2024":      0x44d547411bb64aa8, // B=21 N=792
	"zipf/mean/seed=1":            0x1c7e6f42bfdfe709, // B=21 N=11802
	"zipf/sum/seed=1":             0xd05822fa56bdcf67, // B=21 N=11802
	"zipf/variance/seed=1":        0xa50b8bea603921a7, // B=21 N=7430
	"zipf/median/seed=1":          0x15bde952a2805534, // B=23 N=0
	"zipf/p95/seed=1":             0x59b3c7027109494e, // B=20 N=0
	"zipf/mean/seed=7":            0x486b432e5f33d875, // B=14 N=0
	"zipf/sum/seed=7":             0xf6a7270d891f90b4, // B=14 N=0
	"zipf/variance/seed=7":        0xdfc2550feab329b,  // B=24 N=0
	"zipf/median/seed=7":          0xad40ae3aeaecd045, // B=29 N=0
	"zipf/p95/seed=7":             0x74082b995758e1b5, // B=19 N=90016
	"zipf/mean/seed=42":           0xc830d11d2d4a2ffd, // B=19 N=19735
	"zipf/sum/seed=42":            0x61f461eb6999756d, // B=19 N=19735
	"zipf/variance/seed=42":       0xb47deb9564d73c6d, // B=21 N=0
	"zipf/median/seed=42":         0xa465a268f08b8805, // B=17 N=7285
	"zipf/p95/seed=42":            0x8bf8a8a9dc88c924, // B=20 N=17592
	"zipf/mean/seed=2024":         0x3065a16ab00c7be,  // B=21 N=8273
	"zipf/sum/seed=2024":          0x47b006a37891a24c, // B=21 N=8273
	"zipf/variance/seed=2024":     0xa0d9f16ba9e67e9d, // B=16 N=0
	"zipf/median/seed=2024":       0x943d60ad5fbffd88, // B=19 N=30409
	"zipf/p95/seed=2024":          0x9d968ec775d51f7d, // B=13 N=2909
}

func planFingerprint(p Plan) uint64 {
	h := fnv.New64a()
	put := func(v uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	putF := func(f float64) { put(math.Float64bits(f)) }
	put(uint64(p.B))
	put(uint64(p.N))
	if p.UseFull {
		put(1)
	}
	putF(p.Curve.A)
	putF(p.Curve.B)
	putF(p.Curve.R2)
	put(uint64(len(p.BTrace)))
	for _, v := range p.BTrace {
		putF(v)
	}
	put(uint64(len(p.Points)))
	for _, pt := range p.Points {
		put(uint64(pt.N))
		putF(pt.CV)
	}
	return h.Sum64()
}

// TestSSABEPlanPinned pins the plan for a seed table × the statistics
// that exercise both state kinds (Welford moments, the quantile
// multiset), over a Gaussian and a skewed pilot, at Parallelism 1 and 4.
func TestSSABEPlanPinned(t *testing.T) {
	for _, dist := range []workload.Dist{workload.Gaussian, workload.Zipf} {
		for _, seed := range []uint64{1, 7, 42, 2024} {
			pilot, err := workload.NumericSpec{Dist: dist, N: 3000, Seed: seed + 50}.Generate()
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"mean", "sum", "variance", "median", "p95"} {
				job, err := jobs.ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				key := fmt.Sprintf("%s/%s/seed=%d", dist, name, seed)
				for _, par := range []int{1, 4} {
					plan, err := SSABE(pilot, 10_000_000, Config{Reducer: job.Reducer, Sigma: 0.02, Seed: seed, Parallelism: par})
					if err != nil {
						t.Fatalf("%s: %v", key, err)
					}
					if got, want := planFingerprint(plan), planPins[key]; got != want {
						t.Errorf("%s parallelism %d: plan fingerprint %#x, pinned %#x (B=%d N=%d)", key, par, got, want, plan.B, plan.N)
					}
				}
			}
		}
	}
}
