package earl_test

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"
	"time"

	"repro/earl"
	"repro/internal/workload"
)

// TestLibraryOneShotNeverBlends is serve's TestOneShotNeverBlends for
// the library entry points: core.Execute pins one commit when handed the
// live filesystem, so a RunMulti and a RunGrouped racing rewrites, and
// racing appends, report bit for bit what the same call over one of the
// committed file states reports — never a sample drawn across two of
// them — and leave no snapshot pinned behind, on the error paths either.
// The expected reports come from a second cluster taken through the same
// commits with nothing running beside them.
func TestLibraryOneShotNeverBlends(t *testing.T) {
	gen := func(dist workload.Dist, n int, seed uint64) (data, kv []byte) {
		xs, err := workload.NumericSpec{Dist: dist, N: n, Seed: seed}.Generate()
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(seed, 0x0e5b))
		var b strings.Builder
		for _, x := range xs {
			fmt.Fprintf(&b, "k%d\t%018.9e\n", rng.IntN(3), x)
		}
		return workload.EncodeLinesFixed(xs), []byte(b.String())
	}
	newCluster := func(data, kv []byte) *earl.Cluster {
		c, err := earl.NewCluster(earl.ClusterConfig{BlockSize: 1 << 16, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.WriteFile("/data", data); err != nil {
			t.Fatal(err)
		}
		if err := c.WriteFile("/kv", kv); err != nil {
			t.Fatal(err)
		}
		return c
	}
	jset := []earl.Job{earl.Mean(), earl.Median()}
	for _, sampler := range []earl.SamplerKind{earl.PreMapSampling, earl.PostMapSampling} {
		opts := earl.Options{Sigma: 0.05, Seed: 23, Sampler: sampler}
		// Each one-shot renders its report(s) as the string the allowed
		// set is keyed by.
		shots := map[string]func(c *earl.Cluster) (string, error){
			"RunMulti": func(c *earl.Cluster) (string, error) {
				reps, err := c.RunMulti(jset, "/data", opts)
				return fmt.Sprintf("%+v", reps), err
			},
			"RunGrouped": func(c *earl.Cluster) (string, error) {
				rep, err := c.RunGrouped(earl.Mean(), earl.TabKV, "/kv", opts)
				return fmt.Sprintf("%+v", rep), err
			},
		}
		// race runs shot beside mutate until mutate is done and a shot has
		// run after it; every report must be in allowed, and the states a
		// growing file goes through must never be seen out of order.
		race := func(t *testing.T, c *earl.Cluster, shot func(*earl.Cluster) (string, error), allowed map[string]int, mutate func()) {
			done := make(chan struct{})
			go func() {
				defer close(done)
				mutate()
			}()
			last := -1
			for after := false; !after; {
				select {
				case <-done:
					after = true
				default:
				}
				rep, err := shot(c)
				if err != nil {
					t.Fatal(err)
				}
				state, ok := allowed[rep]
				if !ok {
					t.Fatalf("a one-shot reported no committed state's answer: %s", rep)
				}
				if pins := c.JournalStats().Pins; pins != 0 {
					t.Fatalf("%d pins left after a one-shot returned", pins)
				}
				if state < 0 {
					continue // the rewrites alternate: no order to hold
				}
				if state < last {
					t.Fatalf("a one-shot went back from state %d to state %d", last, state)
				}
				last = state
			}
		}
		for name, shot := range shots {
			must := func(c *earl.Cluster) string {
				t.Helper()
				rep, err := shot(c)
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			t.Run(fmt.Sprintf("%s/%s/rewrite", sampler, name), func(t *testing.T) {
				aData, aKV := gen(workload.Gaussian, 40_000, 2)
				bData, bKV := gen(workload.Uniform, 15_000, 18)
				ref := newCluster(aData, aKV)
				allowed := map[string]int{must(ref): -1}
				ref = newCluster(bData, bKV)
				allowed[must(ref)] = -1
				if len(allowed) != 2 {
					t.Fatal("both contents give the same report; test is vacuous")
				}
				c := newCluster(aData, aKV)
				race(t, c, shot, allowed, func() {
					for i := 0; i < 12; i++ {
						data, kv := bData, bKV
						if i%2 == 1 {
							data, kv = aData, aKV
						}
						if err := c.WriteFile("/data", data); err != nil {
							t.Error(err)
						}
						if err := c.WriteFile("/kv", kv); err != nil {
							t.Error(err)
						}
						time.Sleep(2 * time.Millisecond)
					}
				})
			})
			t.Run(fmt.Sprintf("%s/%s/append", sampler, name), func(t *testing.T) {
				const batches = 8
				base, baseKV := gen(workload.Gaussian, 40_000, 2)
				ref := newCluster(base, baseKV)
				allowed := map[string]int{must(ref): 0}
				for i := 0; i < batches; i++ {
					data, kv := gen(workload.Uniform, 6_000, uint64(30+i))
					if err := ref.Append("/data", data); err != nil {
						t.Fatal(err)
					}
					if err := ref.Append("/kv", kv); err != nil {
						t.Fatal(err)
					}
					allowed[must(ref)] = i + 1
				}
				if len(allowed) != batches+1 {
					t.Fatalf("%d distinct reports over %d file states; test is weaker than it looks", len(allowed), batches+1)
				}
				c := newCluster(base, baseKV)
				race(t, c, shot, allowed, func() {
					for i := 0; i < batches; i++ {
						data, kv := gen(workload.Uniform, 6_000, uint64(30+i))
						if err := c.Append("/data", data); err != nil {
							t.Error(err)
						}
						if err := c.Append("/kv", kv); err != nil {
							t.Error(err)
						}
						time.Sleep(2 * time.Millisecond)
					}
				})
			})
		}
	}

	// Every failing return path releases its pin too: a missing file, a
	// route that decodes nothing, a plan that does not compile, and a
	// record the run rejects after the engine has started.
	data, kv := gen(workload.Gaussian, 20_000, 5)
	c := newCluster(data, kv)
	if err := c.Append("/data", []byte("NaN\n")); err != nil {
		t.Fatal(err)
	}
	opts := earl.Options{Seed: 7, Sampler: earl.PostMapSampling}
	for name, fail := range map[string]func() error{
		"missing path": func() error { _, err := c.RunMulti(jset, "/nope", opts); return err },
		"empty route":  func() error { _, err := c.RunGrouped(earl.Mean(), earl.Route{}, "/kv", opts); return err },
		"bad plan":     func() error { _, err := c.RunPlan(earl.PlanSpec{Path: "/data", Filter: "v +"}, opts); return err },
		"bad record":   func() error { _, err := c.Run(earl.Mean(), "/data", opts); return err },
	} {
		if err := fail(); err == nil {
			t.Errorf("%s: want an error", name)
		}
		if pins := c.JournalStats().Pins; pins != 0 {
			t.Errorf("%s: %d pins left after the failing run returned", name, pins)
		}
	}
}
