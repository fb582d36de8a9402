package jobs

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/dfs"
	"repro/internal/simcost"
	"repro/internal/workload"
)

// update re-records testdata/fitmr.txt. The file was recorded from the
// stock iterated MapReduce job (map, combine, reduce by center) FitMR
// ran before it became a column pass; every later run checks the pass
// against it as recorded.
var update = flag.Bool("update", false, "re-record internal/jobs/testdata/fitmr.txt")

const fitMRFile = "testdata/fitmr.txt"

// fitMRShape is one FitMR run: a point file on a DFS shaped by cfg.
type fitMRShape struct {
	name string
	cfg  dfs.Config
	data []byte
	km   KMeans
}

func fitMRShapes(t *testing.T) []fitMRShape {
	t.Helper()
	mixture := func(spec workload.MixtureSpec) []byte {
		pts, _, err := spec.Generate()
		if err != nil {
			t.Fatal(err)
		}
		return workload.EncodePoints(pts)
	}
	small := mixture(workload.MixtureSpec{K: 3, Dim: 3, N: 300, Spread: 4, Sep: 10, Seed: 31})
	// 200 copies of one point fill the k-means++ prefix, so both seeds
	// coincide and the second center attracts no point: it keeps its
	// position while the first moves to the mean.
	var stuck bytes.Buffer
	stuck.Write(bytes.Repeat([]byte("1,2\n"), 200))
	stuck.Write(mixture(workload.MixtureSpec{K: 2, Dim: 2, N: 400, Spread: 1, Sep: 20, Seed: 32}))
	return []fitMRShape{
		// examples/kmeansclusters: a default 5-node cluster, seed 21.
		{name: "example", cfg: dfs.Config{DataNodes: 5, Seed: 21},
			data: mixture(workload.MixtureSpec{K: 5, Dim: 3, N: 200_000, Spread: 2.0, Sep: 150, Seed: 22}),
			km:   KMeans{K: 5, Seed: 23}},
		// experiments.Fig7 at its test size (2^15 points, seed 1).
		{name: "fig7", cfg: dfs.Config{BlockSize: 1 << 16, DataNodes: 5, Seed: 1},
			data: mixture(workload.MixtureSpec{K: 4, Dim: 2, N: 1 << 15, Spread: 2.0, Sep: 120, Seed: 1}),
			km:   KMeans{K: 4, Seed: 2}},
		// 48-byte blocks cut most lines, and some splits start no line.
		{name: "cut-lines", cfg: dfs.Config{BlockSize: 48, Replication: 2, DataNodes: 4, Seed: 3},
			data: small, km: KMeans{K: 3, Seed: 4}},
		{name: "empty-center", cfg: dfs.Config{BlockSize: 1 << 10, DataNodes: 3, Seed: 5},
			data: stuck.Bytes(), km: KMeans{K: 2, Seed: 6}},
		{name: "k1", cfg: dfs.Config{BlockSize: 1 << 9, DataNodes: 3, Seed: 7},
			data: small, km: KMeans{K: 1, Seed: 8}},
		{name: "max-iter", cfg: dfs.Config{BlockSize: 1 << 9, DataNodes: 3, Seed: 9},
			data: small, km: KMeans{K: 4, MaxIter: 2, Seed: 10}},
	}
}

// TestFitMRGolden holds FitMR to the stock job it was recorded from:
// per shape, the iteration count, the WCSS and every center coordinate
// bit for bit (as %x hex floats), and the full modelled cost of the fit.
func TestFitMRGolden(t *testing.T) {
	got := map[string]string{}
	for _, sh := range fitMRShapes(t) {
		var m simcost.Metrics
		cfg := sh.cfg
		cfg.Metrics = &m
		fsys := dfs.New(cfg)
		if err := fsys.WriteFile("/pts", sh.data); err != nil {
			t.Fatal(err)
		}
		m.Reset()
		snap := fsys.Pin(&m)
		res, err := sh.km.FitMR(snap, &m, "/pts")
		snap.Release()
		if err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		got[sh.name] = fmt.Sprintf("iters %d wcss %x centers %x cost %+v", res.Iterations, res.WCSS, res.Centers, m.Snapshot())
	}
	if *update {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		b.WriteString("# shape | iterations, WCSS and centers as hex floats, the fit's simcost; re-record with go test ./internal/jobs -run TestFitMRGolden -update\n")
		for _, k := range keys {
			fmt.Fprintf(&b, "%s %s\n", k, got[k])
		}
		if err := os.WriteFile(fitMRFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readFitMR(t)
	for k, row := range got {
		switch w, ok := want[k]; {
		case !ok:
			t.Errorf("shape %s is not recorded in %s", k, fitMRFile)
		case w != row:
			t.Errorf("shape %s differs:\nrecorded %s\ngot      %s", k, w, row)
		}
	}
}

func readFitMR(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(fitMRFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if key, row, ok := strings.Cut(sc.Text(), " "); ok && !strings.HasPrefix(key, "#") {
			rows[key] = row
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}
