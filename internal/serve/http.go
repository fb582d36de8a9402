package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/dfs"
	"repro/internal/live"
	"repro/internal/workload"
)

// Handler returns earld's HTTP JSON API over the server:
//
//	POST   /query        {stats:["mean","p95",...], path, filter?, derive?,
//	                     by?, sigma?, sampler?, seed?} — the canonical
//	                     plan.Spec; filter/derive/by are the σ/π/γ
//	                     query-plan expressions, several stats share one
//	                     sampling pass. Malformed expressions are 400s
//	                     with the offending column, and an unknown field
//	                     (parallelism among them: the server sizes its
//	                     own worker pools) is a 400 that names it.
//	POST   /watch        same body; dedupes identical maintained queries
//	                     (scalar, multi-statistic and grouped alike) by the
//	                     spec's canonical key
//	GET    /watch/{id}   current report, refreshing once if the file was written
//	DELETE /watch/{id}?sub=TOKEN  drop the subscription minted by POST /watch
//	                     (idempotent per token; last one closes the query)
//	POST   /append       {path, values:[...]} or {path, data:"raw\nlines\n"}
//	                     → {size}, the file's size after the append
//	POST   /data         {path, values:[...]} create/replace a dataset → {size}
//	GET    /metrics      server + cluster counters, per-query costs, watches
//	GET    /healthz
//
// Every body is one JSON value; anything but whitespace after it is a
// 400. An /append or /data body in the canonical encoding (see
// ingestRequest) is scanned directly, and every other body is decoded
// by encoding/json, to the same struct or the same error.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("POST /watch", s.handleOpenWatch)
	mux.HandleFunc("GET /watch/{id}", s.handleWatchReport)
	mux.HandleFunc("DELETE /watch/{id}", s.handleCloseWatch)
	mux.HandleFunc("POST /append", s.handleAppend)
	mux.HandleFunc("POST /data", s.handleData)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Metrics())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

// openWatchResponse is the POST /watch payload: the shared WatchInfo
// plus whether this subscription joined an existing query.
type openWatchResponse struct {
	WatchInfo
	Shared bool `json:"shared"`
}

// ingestRequest is the POST /append and POST /data body. Values are
// encoded in the fixed-width line format (exactly uniform pre-map
// sampling); Data is raw newline-terminated records stored as-is.
//
// The canonical encoding, which json.Marshal writes for a path that
// needs no escapes and its values, is scanned without encoding/json:
//   - one object whose keys are spelled exactly "path", "values" or
//     "data", each at most once;
//   - strings with no escape, no control byte, and valid UTF-8;
//   - values a flat array of JSON numbers, each parsed by
//     strconv.ParseFloat(s, 64) as encoding/json parses it;
//   - nothing but whitespace after the object.
//
// Any other body (null values, an escaped string such as a data field
// with its newlines, another key spelling, a number ParseFloat rejects)
// is decoded by encoding/json with unknown fields disallowed.
type ingestRequest struct {
	Path   string    `json:"path"`
	Values []float64 `json:"values,omitempty"`
	Data   string    `json:"data,omitempty"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var spec QuerySpec
	if !decodeBody(w, r, &spec) {
		return
	}
	res, err := s.Query(r.Context(), spec)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleOpenWatch(w http.ResponseWriter, r *http.Request) {
	var spec QuerySpec
	if !decodeBody(w, r, &spec) {
		return
	}
	info, shared, err := s.OpenWatch(r.Context(), spec)
	if err != nil {
		writeError(w, err)
		return
	}
	status := http.StatusCreated
	if shared {
		status = http.StatusOK
	}
	writeJSON(w, status, openWatchResponse{WatchInfo: info, Shared: shared})
}

func (s *Server) handleWatchReport(w http.ResponseWriter, r *http.Request) {
	info, err := s.WatchReport(r.Context(), r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleCloseWatch(w http.ResponseWriter, r *http.Request) {
	if err := s.CloseWatch(r.PathValue("id"), r.URL.Query().Get("sub")); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	s.handleIngest(w, r, false)
}

func (s *Server) handleData(w http.ResponseWriter, r *http.Request) {
	s.handleIngest(w, r, true)
}

// handleIngest answers POST /append, or POST /data when rewrite is set.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request, rewrite bool) {
	body, err := readBody(r)
	var req ingestRequest
	if err == nil {
		req, err = decodeIngest(body)
	}
	if err != nil {
		writeBadBody(w, err)
		return
	}
	s.store(w, req, rewrite)
}

// store writes a decoded ingest request to its path and answers it.
func (s *Server) store(w http.ResponseWriter, req ingestRequest, rewrite bool) {
	data, err := req.payload()
	if err != nil {
		writeError(w, err)
		return
	}
	write, status := s.Append, http.StatusOK
	if rewrite {
		write, status = s.Rewrite, http.StatusCreated
	}
	size, err := write(req.Path, data)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, status, map[string]int64{"size": size})
}

func (r ingestRequest) payload() ([]byte, error) {
	if r.Path == "" {
		return nil, errors.New("serve: ingest needs a path")
	}
	switch {
	case len(r.Values) > 0 && r.Data != "":
		return nil, errors.New("serve: give values or data, not both")
	case len(r.Values) > 0:
		return workload.EncodeLinesFixed(r.Values), nil
	case r.Data != "":
		return []byte(r.Data), nil
	default:
		return nil, errors.New("serve: ingest needs values or data")
	}
}

// decodeBody parses the JSON request body into v, answering 400 itself
// on malformed input.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := readBody(r)
	if err == nil {
		err = decodeJSON(body, v)
	}
	if err != nil {
		writeBadBody(w, err)
		return false
	}
	return true
}

// maxPresize caps the buffer a request body is read into before any of
// it has arrived: a Content-Length claim beyond it is believed only as
// the bytes come in.
const maxPresize = 1 << 20

// readBody reads r's body whole, into one buffer presized from
// Content-Length (capped at maxPresize) so a truthful body is read
// without a regrowth.
func readBody(r *http.Request) ([]byte, error) {
	// MinRead of headroom: ReadFrom grows a buffer with less free.
	buf := bytes.NewBuffer(make([]byte, 0, min(max(r.ContentLength, 0), maxPresize)+bytes.MinRead))
	_, err := buf.ReadFrom(r.Body)
	return buf.Bytes(), err
}

// errTrailingData rejects a body that carries more than one JSON value.
var errTrailingData = errors.New("trailing data after the JSON value")

// decodeJSON decodes body into v with encoding/json: an unknown field,
// or anything but whitespace after the one value, is an error.
func decodeJSON(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if skipSpace(body, int(dec.InputOffset())) != len(body) {
		return errTrailingData
	}
	return nil
}

func writeBadBody(w http.ResponseWriter, err error) {
	writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("bad request body: %v", err)})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// retryAfterSeconds is the backoff hint sent with every 503: long
// enough for a queued burst to drain a slot, short enough that clients
// honouring it re-arrive while the burst is still being served.
const retryAfterSeconds = "1"

// writeError maps scheduler and driver errors onto HTTP status codes.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrOverloaded):
		// Overload is transient by construction (the queue is full NOW);
		// tell well-behaved clients when to come back instead of letting
		// them hammer the admission queue.
		w.Header().Set("Retry-After", retryAfterSeconds)
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrUnknownWatch):
		status = http.StatusNotFound
	case errors.Is(err, live.ErrClosed):
		// The watch was closed (last unsubscribe, or a rewrite of its
		// path) while this request was in flight: gone, re-open it.
		status = http.StatusGone
	case errors.Is(err, live.ErrTruncated):
		// The watched file shrank under the handle (an out-of-band
		// rewrite): the maintained state conflicts with the data.
		status = http.StatusConflict
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		status = 499 // client closed request (nginx convention)
	case isClientError(err):
		status = http.StatusBadRequest
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// isClientError reports whether err describes a request the client can
// fix: this package's own validation failures (which all carry the
// "serve:" prefix), a missing file, or a record-unaligned append — the
// latter two matched by errors.Is on the dfs sentinels so wrapping
// never silently turns them into 500s.
func isClientError(err error) bool {
	if errors.Is(err, dfs.ErrNotFound) || errors.Is(err, dfs.ErrUnalignedAppend) {
		return true
	}
	return strings.HasPrefix(err.Error(), "serve:")
}
