package live_test

import (
	"errors"
	"strconv"
	"strings"
	"testing"

	"repro/internal/colscan"
	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/live"
	"repro/internal/workload"
)

// TestRefreshRejectsNaNRecord pins the maintained side of the bugfix: a
// NaN record arriving in APPENDED data fails Refresh with a clean
// errors.Is-able ErrBadRecord instead of corrupting the maintained
// resample sets. ForceN pins the sample near the full file so the
// refresh delta draw is guaranteed to meet the poisoned batch.
func TestRefreshRejectsNaNRecord(t *testing.T) {
	env := newEnv(t, 51)
	base := genValues(t, 4000, 52)
	if err := env.FS.WriteFile("/data", workload.EncodeLinesFixed(base)); err != nil {
		t.Fatal(err)
	}
	q, err := live.WatchMulti(env, []jobs.Numeric{jobs.Mean()}, "/data", core.Options{
		Seed: 53, ForceB: 8, ForceN: 4000,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()

	// Every appended record is poisoned: any delta draw meets one.
	poison := []byte("NaN\nNaN\nNaN\nNaN\nNaN\nNaN\nNaN\nNaN\n")
	if err := env.FS.Append("/data", poison); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Refresh(); !errors.Is(err, core.ErrBadRecord) {
		t.Fatalf("refresh over NaN append: %v", err)
	}
}

// TestExactWatchRejectsNaNRecord: an exact watch (the file is too small
// to sample) under a lax custom parser — strconv.ParseFloat accepts
// "NaN" without an error — fails the refresh that meets an appended NaN
// record with ErrBadRecord instead of folding it into its states.
func TestExactWatchRejectsNaNRecord(t *testing.T) {
	env := newEnv(t, 71)
	if err := env.FS.WriteFile("/data", workload.EncodeLinesFixed(genValues(t, 300, 72))); err != nil {
		t.Fatal(err)
	}
	lax := jobs.Mean()
	lax.ScanFormat = colscan.FormatNone
	lax.Parse = func(line string) (float64, error) { return strconv.ParseFloat(strings.TrimSpace(line), 64) }
	q, err := live.WatchMulti(env, []jobs.Numeric{lax}, "/data", core.Options{Seed: 73})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if !q.Report().UsedFull {
		t.Fatalf("a 300-record watch should be exact: %+v", q.Report())
	}
	if err := env.FS.Append("/data", []byte("1.5\nNaN\n2.5\n")); err != nil {
		t.Fatal(err)
	}
	if rep, err := q.Refresh(); !errors.Is(err, core.ErrBadRecord) {
		t.Fatalf("exact refresh over a NaN append: %+v, %v", rep, err)
	}
}

// TestGroupedRefreshRejectsNaNRecord is the keyed counterpart.
func TestGroupedRefreshRejectsNaNRecord(t *testing.T) {
	env := newEnv(t, 61)
	var data []byte
	for i := 0; i < 4000; i++ {
		key := "a"
		if i%2 == 1 {
			key = "b"
		}
		data = append(data, key...)
		data = append(data, '\t')
		data = append(data, workload.EncodeLinesFixed([]float64{float64(i%89) + 0.25})...)
	}
	if err := env.FS.WriteFile("/kv", data); err != nil {
		t.Fatal(err)
	}
	q, err := live.WatchGrouped(env, jobs.Mean(), core.TabRoute(), "/kv", core.Options{
		Seed: 62, ForceB: 8, ForceN: 4000,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if err := env.FS.Append("/kv", []byte("a\tNaN\na\tNaN\na\tNaN\na\tNaN\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Refresh(); !errors.Is(err, core.ErrBadRecord) {
		t.Fatalf("grouped refresh over NaN append: %v", err)
	}
}
