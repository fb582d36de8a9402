package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestDaemonEndToEnd boots earld on an ephemeral port and walks the API
// the way the README's curl session does: load data, one-shot query,
// open a watch, append, read the refreshed watch, check metrics.
func TestDaemonEndToEnd(t *testing.T) {
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	var out, errw strings.Builder
	go func() {
		errc <- run([]string{"-addr", "127.0.0.1:0", "-demo-records", "30000"}, &out, &errw, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-errc:
		t.Fatalf("earld exited before listening: %v\n%s%s", err, out.String(), errw.String())
	case <-time.After(30 * time.Second):
		t.Fatal("earld never became ready")
	}
	base := "http://" + addr

	postStatus := func(path, body string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatalf("POST %s: decode: %v", path, err)
		}
		return resp.StatusCode, m
	}
	post := func(path, body string) map[string]any {
		t.Helper()
		status, m := postStatus(path, body)
		if status >= 300 {
			t.Fatalf("POST %s: status %d: %v", path, status, m)
		}
		return m
	}

	q := post("/query", `{"stats":["mean"],"path":"/demo/gaussian"}`)
	rep, ok := q["report"].(map[string]any)
	if !ok || rep["SampleSize"] == nil {
		t.Fatalf("query response missing report: %v", q)
	}

	// Plan fields ride the same body: a pushed-down filter answers over
	// the subpopulation, a malformed expression is a client error (400)
	// with the offending column, not a 500.
	fq := post("/query", `{"stats":["mean"],"path":"/demo/gaussian","filter":"v > 0"}`)
	if frep, ok := fq["report"].(map[string]any); !ok || frep["SampleSize"] == nil {
		t.Fatalf("filtered query response missing report: %v", fq)
	}
	status, badBody := postStatus("/query", `{"stats":["mean"],"path":"/demo/gaussian","filter":"v +"}`)
	if status != http.StatusBadRequest {
		t.Fatalf("malformed filter should be 400, got %d: %v", status, badBody)
	}
	if msg, _ := badBody["error"].(string); !strings.Contains(msg, "column") {
		t.Fatalf("expression error should carry its column: %v", badBody)
	}
	// A query has one spelling: a field outside plan.Spec, such as the
	// retired "job", or "parallelism" (the server sizes its own worker
	// pools), is a 400 that names it.
	for _, c := range []struct{ field, body string }{
		{"job", `{"job":"mean","path":"/demo/gaussian"}`},
		{"parallelism", `{"stats":["mean"],"path":"/demo/gaussian","parallelism":4}`},
	} {
		status, badBody = postStatus("/query", c.body)
		if msg, _ := badBody["error"].(string); status != http.StatusBadRequest || !strings.Contains(msg, `"`+c.field+`"`) {
			t.Fatalf(`a body with %q should be a 400 naming it, got %d: %v`, c.field, status, badBody)
		}
	}

	w1 := post("/watch", `{"stats":["mean"],"path":"/demo/gaussian","sigma":0.05}`)
	id, _ := w1["id"].(string)
	if id == "" {
		t.Fatalf("watch response missing id: %v", w1)
	}
	w2 := post("/watch", `{"stats":["mean"],"path":"/demo/gaussian","sigma":0.05}`)
	if shared, _ := w2["shared"].(bool); !shared {
		t.Fatalf("second identical watch not deduped: %v", w2)
	}
	if w2["id"] != id {
		t.Fatalf("deduped watch got a different id: %v vs %v", w2["id"], id)
	}

	vals := make([]string, 0, 1000)
	for i := 0; i < 1000; i++ {
		vals = append(vals, fmt.Sprintf("%g", 5+float64(i%7)))
	}
	post("/append", `{"path":"/demo/gaussian","values":[`+strings.Join(vals, ",")+`]}`)

	resp, err := http.Get(base + "/watch/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var info map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if refreshes, _ := info["refreshes"].(float64); refreshes != 1 {
		t.Fatalf("watch after one append should show 1 refresh, got %v", info["refreshes"])
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	srv, _ := metrics["server"].(map[string]any)
	if srv == nil || srv["watchesShared"].(float64) != 1 {
		t.Fatalf("metrics missing dedup accounting: %v", metrics["server"])
	}
}
