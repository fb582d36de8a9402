//go:build goexperiment.synctest

package serve

import (
	"context"
	"reflect"
	"testing"
	"testing/synctest"

	"repro/internal/core"
)

// TestBubbledConcurrentGroupedOneShotsAtDefaults is
// TestConcurrentGroupedOneShotsAtDefaults inside a synctest bubble, with
// channels for its waits: four clients' filtered, grouped post-map
// one-shots run at once on a fresh server, and every answer must equal
// the same query run alone. A cluster that made a map task wait for
// capacity no other task will free leaves every goroutine of the bubble
// durably blocked, and synctest.Run panics at once with the deadlock
// instead of a wall-clock deadline running out.
func TestBubbledConcurrentGroupedOneShotsAtDefaults(t *testing.T) {
	synctest.Run(func() {
		const path, clients, reps = "/t/crowd", 4, 5
		records := kvRecords(50_000, 3)
		server := func() *Server {
			// 64 KiB blocks split the file's 0.8 MB so a run gets four mappers.
			env, err := core.NewEnv(core.EnvConfig{BlockSize: 64 << 10, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			s, err := New(env, Config{})
			if err != nil {
				t.Fatal(err)
			}
			if err := env.FS.WriteFile(path, records); err != nil {
				t.Fatal(err)
			}
			return s
		}
		ctx := context.Background()
		ask := func(s *Server, c int) (answer, error) {
			r, err := s.Query(ctx, scanSpec(path, uint64(c+1)))
			return answer{r.Report, r.Reports, r.Groups}, err
		}
		alone, want := server(), make([]answer, clients)
		for c := range want {
			var err error
			if want[c], err = ask(alone, c); err != nil {
				t.Fatal(err)
			}
		}
		type result struct {
			c   int
			got answer
			err error
		}
		for rep := range reps {
			s := server()
			results := make(chan result)
			for c := range clients {
				go func() {
					got, err := ask(s, c)
					results <- result{c, got, err}
				}()
			}
			for range clients {
				r := <-results
				if r.err != nil {
					t.Fatalf("repetition %d, client %d: %v", rep, r.c, r.err)
				}
				if !reflect.DeepEqual(r.got, want[r.c]) {
					t.Errorf("repetition %d: client %d's answer differs from its serial run:\n%+v\n%+v", rep, r.c, r.got, want[r.c])
				}
			}
		}
	})
}
