package query

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"cludistream/internal/gaussian"
)

// Handler serves the query tier over HTTP:
//
//	/query/classify?x=1,2,3       — argmax-posterior component (JSON)
//	/query/density?x=1,2,3        — log p(x) (JSON)
//	/query/topk?x=1,2,3&k=4       — k nearest components (JSON)
//	/query/snapshot               — snapshot metadata (JSON)
//	POST /query/batch             — binary batch protocol (see wire.go)
//
// All endpoints answer 503 until the first snapshot is published, and 400
// to a coordinate that is not finite. A finite point can still score
// outside float64: far enough from every component its density underflows
// (log_density −Inf, log_posterior NaN) or its squared distance overflows
// (dist_sq +Inf). JSON has no such numbers, so those fields are null; the
// batch endpoint sends the f64 bits as they are. Query scratch is pooled,
// so steady-state request handling does not allocate on the scoring path
// (the HTTP stack itself still allocates per request; the binary batch
// endpoint amortizes that across records).
func Handler(pub *Publisher) http.Handler {
	h := &httpHandler{pub: pub}
	h.pool.New = func() any { return pub.NewQuerier() }
	mux := http.NewServeMux()
	mux.HandleFunc("/query/classify", h.classify)
	mux.HandleFunc("/query/density", h.density)
	mux.HandleFunc("/query/topk", h.topk)
	mux.HandleFunc("/query/snapshot", h.snapshot)
	mux.HandleFunc("/query/batch", h.batch)
	return mux
}

type httpHandler struct {
	pub  *Publisher
	pool sync.Pool // of *Querier
}

// acquire returns a pooled Querier plus the current snapshot; a nil
// snapshot means nothing is published and the caller already got a 503.
func (h *httpHandler) acquire(w http.ResponseWriter) (*Querier, *Snapshot) {
	sn := h.pub.Current()
	if sn == nil {
		http.Error(w, "query: no snapshot published yet", http.StatusServiceUnavailable)
		return nil, nil
	}
	q := h.pool.Get().(*Querier)
	h.pub.ObserveStaleness(sn)
	return q, sn
}

func (h *httpHandler) release(q *Querier) {
	q.Flush()
	h.pool.Put(q)
}

// parseX decodes the comma-separated x= query parameter into dim floats.
func parseX(r *http.Request, dim int) ([]float64, error) {
	raw := r.URL.Query().Get("x")
	if raw == "" {
		return nil, fmt.Errorf("missing x= parameter (comma-separated floats)")
	}
	parts := strings.Split(raw, ",")
	if len(parts) != dim {
		return nil, fmt.Errorf("x has %d values, snapshot dimension is %d", len(parts), dim)
	}
	x := make([]float64, dim)
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("x[%d]: %v", i, err)
		}
		if !finite(v) {
			return nil, fmt.Errorf("x[%d] = %v: coordinates must be finite", i, v)
		}
		x[i] = v
	}
	return x, nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// jsonNumber is v, or nil — JSON null — when v is ±Inf or NaN.
func jsonNumber(v float64) *float64 {
	if !finite(v) {
		return nil
	}
	return &v
}

func (h *httpHandler) classify(w http.ResponseWriter, r *http.Request) {
	q, sn := h.acquire(w)
	if q == nil {
		return
	}
	defer h.release(q)
	x, err := parseX(r, sn.Dim())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	res := sn.Classify(x, q.scratch)
	q.nClassify++
	writeJSON(w, struct {
		Version      uint64   `json:"version"`
		Component    int      `json:"component"`
		LogPosterior *float64 `json:"log_posterior"`
		LogDensity   *float64 `json:"log_density"`
	}{sn.Version(), res.Component, jsonNumber(res.LogPosterior), jsonNumber(res.LogDensity)})
}

func (h *httpHandler) density(w http.ResponseWriter, r *http.Request) {
	q, sn := h.acquire(w)
	if q == nil {
		return
	}
	defer h.release(q)
	x, err := parseX(r, sn.Dim())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ld := sn.LogDensity(x, q.scratch)
	q.nDensity++
	writeJSON(w, struct {
		Version    uint64   `json:"version"`
		LogDensity *float64 `json:"log_density"`
	}{sn.Version(), jsonNumber(ld)})
}

func (h *httpHandler) topk(w http.ResponseWriter, r *http.Request) {
	q, sn := h.acquire(w)
	if q == nil {
		return
	}
	defer h.release(q)
	x, err := parseX(r, sn.Dim())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	k := 3
	if s := r.URL.Query().Get("k"); s != "" {
		k, err = strconv.Atoi(s)
		if err != nil || k < 1 {
			http.Error(w, "bad k: must be a positive integer", http.StatusBadRequest)
			return
		}
	}
	nbrs := sn.TopK(x, k, q.scratch)
	q.nTopK++
	type nbr struct {
		Component int      `json:"component"`
		DistSq    *float64 `json:"dist_sq"`
		Weight    float64  `json:"weight"`
	}
	out := make([]nbr, len(nbrs))
	for i, n := range nbrs {
		out[i] = nbr{n.ID, jsonNumber(n.DistSq), sn.Weight(n.ID)}
	}
	writeJSON(w, struct {
		Version   uint64 `json:"version"`
		Neighbors []nbr  `json:"neighbors"`
	}{sn.Version(), out})
}

func (h *httpHandler) snapshot(w http.ResponseWriter, r *http.Request) {
	sn := h.pub.Current()
	if sn == nil {
		http.Error(w, "query: no snapshot published yet", http.StatusServiceUnavailable)
		return
	}
	writeJSON(w, struct {
		Version     uint64  `json:"version"`
		K           int     `json:"k"`
		Dim         int     `json:"dim"`
		Mass        float64 `json:"mass"`
		PublishedAt float64 `json:"published_at"`
	}{sn.Version(), sn.K(), sn.Dim(), sn.Mass(), sn.PublishedAt()})
}

// Binary batch protocol (all little-endian):
//
//	request:  "CLUQ" | ver u8 (=1) | op u8 | k u16 | n u32 | dim u16 | n·dim f64
//	response: "CLUR" | ver u8 (=1) | op u8 | snapshot version u64 | n u32 | payload
//
// payload per record: classify → comp u32, log-posterior f64, log-density
// f64; density → f64; topk → k·(comp u32, dist² f64). One round trip
// scores n points, amortizing HTTP overhead to nothing at batch sizes in
// the hundreds.
const (
	OpClassify = 1
	OpDensity  = 2
	OpTopK     = 3

	batchMagicQ = "CLUQ"
	batchMagicR = "CLUR"
	batchVer    = 1
	batchHdrQ   = 14 // request header bytes
	batchHdrR   = 18 // reply header bytes
	// maxBatch bounds one request's record count (64 MiB of f64s at
	// dim=16) so a bad length prefix cannot balloon allocation, and
	// maxBatchReply bounds the reply the same way: topk pads every record
	// to k slots, so n and k alone could otherwise ask for ~400 GB.
	maxBatch      = 1 << 19
	maxBatchReply = 64 << 20
)

func (h *httpHandler) batch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	q, sn := h.acquire(w)
	if q == nil {
		return
	}
	defer h.release(q)

	var hdr [batchHdrQ]byte
	if _, err := io.ReadFull(r.Body, hdr[:]); err != nil {
		http.Error(w, "short batch header", http.StatusBadRequest)
		return
	}
	if string(hdr[0:4]) != batchMagicQ || hdr[4] != batchVer {
		http.Error(w, "bad batch magic/version", http.StatusBadRequest)
		return
	}
	op := int(hdr[5])
	k := int(binary.LittleEndian.Uint16(hdr[6:8]))
	n := int(binary.LittleEndian.Uint32(hdr[8:12]))
	dim := int(binary.LittleEndian.Uint16(hdr[12:14]))
	if dim != sn.Dim() {
		http.Error(w, fmt.Sprintf("batch dim %d, snapshot dim %d", dim, sn.Dim()), http.StatusBadRequest)
		return
	}
	if n < 1 || n > maxBatch {
		http.Error(w, fmt.Sprintf("batch n %d out of range [1,%d]", n, maxBatch), http.StatusBadRequest)
		return
	}
	var per int // reply bytes per record
	switch op {
	case OpClassify:
		per = 4 + 8 + 8
	case OpDensity:
		per = 8
	case OpTopK:
		if k < 1 {
			http.Error(w, "topk batch needs k >= 1", http.StatusBadRequest)
			return
		}
		per = k * (4 + 8)
	default:
		http.Error(w, fmt.Sprintf("unknown op %d", op), http.StatusBadRequest)
		return
	}
	size := batchHdrR + n*per
	if size > maxBatchReply {
		http.Error(w, fmt.Sprintf("batch reply of %d bytes exceeds %d", size, maxBatchReply), http.StatusBadRequest)
		return
	}

	out := make([]byte, 0, size)
	out = append(out, batchMagicR...)
	out = append(out, batchVer, byte(op))
	out = binary.LittleEndian.AppendUint64(out, sn.Version())
	out = binary.LittleEndian.AppendUint32(out, uint32(n))
	out, err := q.appendBatch(out, sn, op, k, n, r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(out)
}

// appendBatch reads n records of sn.Dim() f64 coordinates from body one
// gaussian.BatchBlock at a time, scores each block with op and appends
// the replies to out. Classify and density run on the mixture's block
// kernels, TopK on the kd tree per record. Scratch is one block, whatever
// n is. The caller has validated op, k ≥ 1 for topk, and n.
func (q *Querier) appendBatch(out []byte, sn *Snapshot, op, k, n int, body io.Reader) ([]byte, error) {
	s, dim := q.scratch, sn.Dim()
	s.ensure(dim)
	for base := 0; base < n; base += gaussian.BatchBlock {
		count := min(gaussian.BatchBlock, n-base)
		raw := s.raw[:count*dim*8]
		if _, err := io.ReadFull(body, raw); err != nil {
			return nil, fmt.Errorf("short batch payload")
		}
		for i := range s.flat[:count*dim] {
			v := math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
			if !finite(v) {
				return nil, fmt.Errorf("batch record %d: x[%d] = %v: coordinates must be finite", base+i/dim, i%dim, v)
			}
			s.flat[i] = v
		}
		xs := s.xs[:count]
		switch op {
		case OpClassify:
			sn.mix.ClassifyBatch(xs, s.comp[:count], s.post[:count], s.dens[:count], &s.batch)
			q.nClassify += int64(count)
			for p := range xs {
				out = binary.LittleEndian.AppendUint32(out, uint32(s.comp[p]))
				out = binary.LittleEndian.AppendUint64(out, math.Float64bits(s.post[p]))
				out = binary.LittleEndian.AppendUint64(out, math.Float64bits(s.dens[p]))
			}
		case OpDensity:
			sn.mix.ScoreBatch(xs, s.dens[:count], &s.batch)
			q.nDensity += int64(count)
			for p := range xs {
				out = binary.LittleEndian.AppendUint64(out, math.Float64bits(s.dens[p]))
			}
		case OpTopK:
			for _, x := range xs {
				nbrs := sn.TopK(x, k, s)
				q.nTopK++
				// Pad with sentinel ^uint32(0) entries when k > K so
				// every record occupies exactly k slots and the client
				// can index.
				for j := 0; j < k; j++ {
					if j < len(nbrs) {
						out = binary.LittleEndian.AppendUint32(out, uint32(nbrs[j].ID))
						out = binary.LittleEndian.AppendUint64(out, math.Float64bits(nbrs[j].DistSq))
					} else {
						out = binary.LittleEndian.AppendUint32(out, ^uint32(0))
						out = binary.LittleEndian.AppendUint64(out, math.Float64bits(math.Inf(1)))
					}
				}
			}
		}
	}
	return out, nil
}

// writeJSON encodes v before writing a byte, so a value that fails to
// encode is a 500, never a 200 with an empty body.
func writeJSON(w http.ResponseWriter, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, "query: encode response: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Write(append(body, '\n'))
}

// Server is a running query HTTP listener.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts the query endpoints on addr (":0" for ephemeral) in a
// background goroutine.
func Serve(addr string, pub *Publisher) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: Handler(pub), ReadHeaderTimeout: 10 * time.Second}
	go srv.Serve(ln) // returns when ln closes; nothing to report
	return &Server{ln: ln, srv: srv}, nil
}

// Addr returns the listening address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close stops the listener and closes idle connections.
func (s *Server) Close() error { return s.srv.Close() }
