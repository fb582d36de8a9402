package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/workload"
)

// benchBody is an append body built the way the end-to-end benchmark's
// ingest cycle builds one: json.Marshal of n N(50, 15) values.
func benchBody(tb testing.TB, path string, n int) []byte {
	tb.Helper()
	xs, err := workload.NumericSpec{Dist: workload.Gaussian, N: n, Seed: 7}.Generate()
	if err != nil {
		tb.Fatal(err)
	}
	body, err := json.Marshal(struct {
		Path   string    `json:"path"`
		Values []float64 `json:"values"`
	}{path, xs})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// sameRequest fails unless a and b hold the same path, data and values,
// values compared by bits and nil-ness.
func sameRequest(t *testing.T, body []byte, a, b ingestRequest) {
	t.Helper()
	if a.Path != b.Path || a.Data != b.Data || (a.Values == nil) != (b.Values == nil) || len(a.Values) != len(b.Values) {
		t.Fatalf("body %q: decoded %+v, encoding/json %+v", body, a, b)
	}
	for i := range a.Values {
		if math.Float64bits(a.Values[i]) != math.Float64bits(b.Values[i]) {
			t.Fatalf("body %q: value %d decoded %v (%#x), encoding/json %v (%#x)", body, i,
				a.Values[i], math.Float64bits(a.Values[i]), b.Values[i], math.Float64bits(b.Values[i]))
		}
	}
}

// canonicalKeys fails unless body is one object whose keys are among
// path, values and data, spelled exactly and each at most once.
func canonicalKeys(t *testing.T, body []byte) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("body %q: scanned, but is not an object (%v, %v)", body, tok, err)
	}
	seen := map[string]bool{}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatalf("body %q: %v", body, err)
		}
		key, _ := tok.(string)
		if (key != "path" && key != "values" && key != "data") || seen[key] {
			t.Fatalf("body %q: scanned, but key %q is not canonical or repeats", body, key)
		}
		seen[key] = true
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatalf("body %q: %v", body, err)
		}
	}
}

// FuzzDecodeIngest holds the scanner to encoding/json: a body it takes
// is canonical and decodes to encoding/json's struct, and decodeIngest
// as a whole gives the encoding/json path's struct or error.
func FuzzDecodeIngest(f *testing.F) {
	f.Add(benchBody(f, "/bench/stream", 4096))
	for _, seed := range []string{
		`{"path":"/t","values":[]}`,
		`{"path":"/t","values":null}`,
		`{"path":"/t","values":[1,null]}`,
		`{"path":"/t","values":[-0, 1E5, 1e-400, 2.5e+3, 0.1]}`,
		`{"path":"/t","values":[1e400]}`,
		`{"path":"/t","values":[01]}`,
		`{"path":"/t","values":[+1]}`,
		`{"path":"/t","values":[.5]}`,
		`{"path":"/t","values":[1.]}`,
		`{"path":"\/t","values":[1]}`,
		`{"path":"/t","data":"1\n2\n"}`,
		"{\"path\":\"/t\xff\",\"values\":[1]}",
		`{"Path":"/t","VALUES":[1]}`,
		`{"path":"/t","values":[1],"values":[2,3]}`,
		`{"path":"/a","path":"/b"}`,
		`{"path":"/t","values":[1],"extra":2}`,
		"\xef\xbb\xbf{\"path\":\"/t\",\"values\":[1]}",
		`{"path":"/t","values":[1]}{"path":"/t","values":[2]}`,
		`{"path":"/t","values":[1]} x`,
		" {} \n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if req, ok := scanIngest(body); ok {
			canonicalKeys(t, body)
			var ref ingestRequest
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&ref); err != nil {
				t.Fatalf("body %q: scanned, but encoding/json says %v", body, err)
			}
			if _, err := dec.Token(); err != io.EOF {
				t.Fatalf("body %q: scanned, but data follows the object (%v)", body, err)
			}
			sameRequest(t, body, req, ref)
		}
		got, err := decodeIngest(body)
		var ref ingestRequest
		refErr := decodeJSON(body, &ref)
		if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
			t.Fatalf("body %q: decodeIngest error %v, encoding/json path %v", body, err, refErr)
		}
		if err == nil {
			sameRequest(t, body, got, ref)
		}
	})
}

// viaJSON answers an ingest body the way the handler did before it had
// a scanner: encoding/json decodes it and the rest is unchanged.
func viaJSON(s *Server, rewrite bool, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	var req ingestRequest
	if err := decodeJSON(body, &req); err != nil {
		writeBadBody(rec, err)
	} else {
		s.store(rec, req, rewrite)
	}
	return rec
}

func post(h http.Handler, route string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, bytes.NewReader(body)))
	return rec
}

// TestIngestMatchesJSON sends a fixed sequence of canonical and other
// bodies to /append and /data, and answers the same sequence through
// encoding/json on a twin server: every answer's status and bytes, and
// the journal left behind, must be the same.
func TestIngestMatchesJSON(t *testing.T) {
	s, env := newTestServer(t, Config{}, "/t/ing", 2_000)
	twin, twinEnv := newTestServer(t, Config{}, "/t/ing", 2_000)
	line, err := json.Marshal(string(workload.EncodeLinesFixed([]float64{7.25})))
	if err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		rewrite bool
		body    string
	}{
		{false, `{"path":"/t/ing","values":[50.123456789012345,-0,1E5,2.5e-3,-7.0000000000000001e2,123456789.12345678,1e-400,0.1]}`},
		{false, string(benchBody(t, "/t/ing", 512))},
		{false, `{"path":"\/t\/ing","values":[1,2]}`},
		{false, `{"Path":"/t/ing","VALUES":[3]}`},
		{false, `{"path":"/t/ing","data":` + string(line) + `}`},
		{false, `{"path":"/t/ing","values":[1],"values":[9,8]}`},
		{false, `{"path":"/t/ing","values":[1,null]}`},
		{false, `{"path":"/t/ing","values":[4],"extra":1}`},
		{false, `{"path":"/t/ing","values":[5]}{"path":"/t/ing","values":[6]}`},
		{false, "\xef\xbb\xbf{\"path\":\"/t/ing\",\"values\":[1]}"},
		{false, `{"path":"/t/ing","values":null}`},
		{false, `{"path":"/t/ing","values":[]}`},
		{false, `{"path":"/t/ing","values":[1e400]}`},
		{false, `{"path":"/t/ing","values":[+1]}`},
		{false, `{"path":"/t/ing","values":[01]}`},
		{false, `{"path":"/t/ing","values":[.5]}`},
		{false, `{"path":"/t/ing","values":[1.]}`},
		{false, "{\"path\":\"/t/ing\xff\",\"values\":[1]}"},
		{false, `{"path":"/t/ing","values":[1],"data":"x"}`},
		{false, `{"values":[1]}`},
		{false, `{"path":"/t/missing","values":[1]}`},
		{false, `{"path":"/t/ing","values":[1,2,3]`},
		{false, ``},
		{true, `{"path":"/t/other","values":[3.5,-0,6.02214076e23]}`},
		{true, `{"path":"/t/other","values":[3.5],"VALUES":[4.5]}`},
		{false, ` {"path" : "/t/other" , "values" : [ 1 , 2 ] } ` + "\n"},
	}
	scanned := 0
	for i, st := range steps {
		route := "/append"
		if st.rewrite {
			route = "/data"
		}
		if _, ok := scanIngest([]byte(st.body)); ok {
			scanned++
		}
		got := post(s.Handler(), route, []byte(st.body))
		want := viaJSON(twin, st.rewrite, []byte(st.body))
		if got.Code != want.Code || got.Body.String() != want.Body.String() {
			t.Errorf("step %d %s %q:\n got %d %s\nwant %d %s", i, route, st.body,
				got.Code, got.Body, want.Code, want.Body)
		}
	}
	if scanned < 5 || len(steps)-scanned < 5 {
		t.Fatalf("the scanner took %d of %d bodies; the sequence no longer covers both paths", scanned, len(steps))
	}
	if !bytes.Equal(env.FS.JournalBytes(), twinEnv.FS.JournalBytes()) {
		t.Fatal("journal bytes differ from the encoding/json path's")
	}
}

// TestTrailingDataRejected: a body holding a second JSON value is a 400
// on every endpoint that takes one, and nothing is stored.
func TestTrailingDataRejected(t *testing.T) {
	s, env := newTestServer(t, Config{}, "/t/tr", 2_000)
	size := func() int64 {
		t.Helper()
		n, err := env.FS.Stat("/t/tr")
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	before := size()
	spec := `{"path":"/t/tr","stats":["mean"],"sigma":0.1,"seed":1}`
	for route, body := range map[string]string{
		"/query":  spec + spec,
		"/watch":  spec + " " + spec,
		"/append": `{"path":"/t/tr","values":[1]}{"path":"/t/tr","values":[2]}`,
		"/data":   `{"path":"/t/tr","values":[1]}` + "\n}",
	} {
		rec := post(s.Handler(), route, []byte(body))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), errTrailingData.Error()) {
			t.Errorf("%s with trailing data: %d %s", route, rec.Code, rec.Body)
		}
		if got := size(); got != before {
			t.Errorf("%s with trailing data changed the file: %d → %d bytes", route, before, got)
		}
	}
	if st := s.Stats(); st.WatchesOpened != 0 || st.Queries != 0 {
		t.Errorf("trailing data ran %d queries and opened %d watches", st.Queries, st.WatchesOpened)
	}
}

// TestIngestLyingContentLength: a request claiming 1 GiB and sending 20
// bytes is a 400, and the server never allocates toward the claim.
func TestIngestLyingContentLength(t *testing.T) {
	s, env := newTestServer(t, Config{}, "/t/cl", 2_000)
	before, err := env.FS.Stat("/t/cl")
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	const sent = `{"path":"/t/cl","val`
	req := "POST /append HTTP/1.1\r\nHost: earld\r\nContent-Type: application/json\r\n" +
		"Content-Length: 1073741824\r\n\r\n" + sent
	if _, err := io.WriteString(conn, req); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)

	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), io.ErrUnexpectedEOF.Error()) {
		t.Fatalf("short body answered %d %s", resp.StatusCode, msg)
	}
	if got, limit := m1.TotalAlloc-m0.TotalAlloc, uint64(4*maxPresize); got > limit {
		t.Fatalf("a 1 GiB claim with %d bytes sent allocated %d bytes (limit %d)", len(sent), got, limit)
	}
	if after, err := env.FS.Stat("/t/cl"); err != nil || after != before {
		t.Fatalf("file went %d → %d bytes (%v)", before, after, err)
	}
}

// TestIngestAllocs bounds what decoding a canonical append costs the
// handler. What the handler allocates beyond storing the decoded request
// is measured for a 1-value and a 4096-value body: the larger body may
// add only its own bytes and 8 per value (the body buffer and the
// values), and no allocation. Each measurement holds GOMAXPROCS at 1, as
// testing.AllocsPerRun does, so goroutines other tests left behind do
// not run beside it and add their allocations to its count.
func TestIngestAllocs(t *testing.T) {
	s, _ := newTestServer(t, Config{}, "/bench/stream", 2_000)
	h := s.Handler()
	measure := func(run func()) (allocs, bytes float64) {
		const runs = 20
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		run() // warm: the mux and the file's tail block are set up
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		for range runs {
			run()
		}
		runtime.ReadMemStats(&m1)
		return float64(m1.Mallocs-m0.Mallocs) / runs, float64(m1.TotalAlloc-m0.TotalAlloc) / runs
	}
	// beyondStore is what the handler allocates for body beyond what
	// s.store allocates for the request body decodes to.
	beyondStore := func(body []byte) (allocs, bytes float64) {
		req, err := decodeIngest(body)
		if err != nil {
			t.Fatal(err)
		}
		ha, hb := measure(func() {
			if rec := post(h, "/append", body); rec.Code != http.StatusOK {
				t.Fatalf("append answered %d %s", rec.Code, rec.Body)
			}
		})
		sa, sb := measure(func() {
			rec := httptest.NewRecorder()
			s.store(rec, req, false)
			if rec.Code != http.StatusOK {
				t.Fatalf("store answered %d %s", rec.Code, rec.Body)
			}
		})
		return ha - sa, hb - sb
	}
	small := []byte(`{"path":"/bench/stream","values":[50]}`)
	big := benchBody(t, "/bench/stream", 4096)
	smallAllocs, smallBytes := beyondStore(small)
	bigAllocs, bigBytes := beyondStore(big)
	t.Logf("beyond storing: %.1f allocs %.0f B for 1 value, %.1f allocs %.0f B for 4096", smallAllocs, smallBytes, bigAllocs, bigBytes)
	// Averages over runs that cross block boundaries at different
	// points differ by about one allocation.
	if bigAllocs > smallAllocs+2 {
		t.Errorf("decoding 4096 values makes %.1f allocations beyond storing them, 1 value makes %.1f", bigAllocs, smallAllocs)
	}
	// Each of the two large objects is rounded up to whole 8 KiB pages.
	if extra, limit := bigBytes-smallBytes, float64(len(big)-len(small)+8*4096+2*8192); extra > limit {
		t.Errorf("decoding 4096 values allocates %.0f bytes more than decoding 1, limit %.0f", extra, limit)
	}
}

// BenchmarkDecodeIngest reads and decodes the benchmark's append body:
// 4096 N(50, 15) values, as POST /append receives it.
func BenchmarkDecodeIngest(b *testing.B) {
	body := benchBody(b, "/bench/stream", 4096)
	rd := bytes.NewReader(body)
	r := httptest.NewRequest(http.MethodPost, "/append", rd)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		rd.Reset(body)
		buf, err := readBody(r)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := decodeIngest(buf); err != nil {
			b.Fatal(err)
		}
	}
}
