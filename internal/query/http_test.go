package query

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"cludistream/internal/gaussian"
	"cludistream/internal/telemetry"
)

func TestHTTPUnavailableBeforePublish(t *testing.T) {
	srv := httptest.NewServer(Handler(NewPublisher(Options{})))
	defer srv.Close()
	for _, path := range []string{"/query/classify?x=1", "/query/density?x=1", "/query/topk?x=1", "/query/snapshot"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s: status %d, want 503", path, resp.StatusCode)
		}
	}
}

func TestHTTPJSONEndpoints(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	reg := telemetry.NewRegistry()
	p := NewPublisher(Options{Telemetry: reg})
	mix := randMixture(rng, 4, 2)
	if _, err := p.Publish(mix, 42, 500); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(p))
	defer srv.Close()

	var meta struct {
		Version uint64 `json:"version"`
		K       int    `json:"k"`
		Dim     int    `json:"dim"`
	}
	getJSON(t, srv.URL+"/query/snapshot", &meta)
	if meta.Version != 42 || meta.K != 4 || meta.Dim != 2 {
		t.Fatalf("snapshot meta = %+v", meta)
	}

	var cls struct {
		Version    uint64  `json:"version"`
		Component  int     `json:"component"`
		LogDensity float64 `json:"log_density"`
	}
	getJSON(t, srv.URL+"/query/classify?x=0,0", &cls)
	sc := NewScratch()
	want := p.Current().Classify([]float64{0, 0}, sc)
	if cls.Component != want.Component || cls.LogDensity != want.LogDensity || cls.Version != 42 {
		t.Fatalf("classify = %+v, want comp %d density %v", cls, want.Component, want.LogDensity)
	}

	var den struct {
		LogDensity float64 `json:"log_density"`
	}
	getJSON(t, srv.URL+"/query/density?x=1,-1", &den)
	if wantLD := p.Current().LogDensity([]float64{1, -1}, sc); den.LogDensity != wantLD {
		t.Fatalf("density = %v, want %v", den.LogDensity, wantLD)
	}

	var top struct {
		Neighbors []struct {
			Component int     `json:"component"`
			DistSq    float64 `json:"dist_sq"`
		} `json:"neighbors"`
	}
	getJSON(t, srv.URL+"/query/topk?x=0,0&k=2", &top)
	if len(top.Neighbors) != 2 {
		t.Fatalf("topk returned %d neighbors, want 2", len(top.Neighbors))
	}
	wantN := p.Current().TopK([]float64{0, 0}, 2, sc)
	if top.Neighbors[0].Component != wantN[0].ID || top.Neighbors[0].DistSq != wantN[0].DistSq {
		t.Fatalf("topk[0] = %+v, want %+v", top.Neighbors[0], wantN[0])
	}

	// Bad inputs: wrong dim, malformed float, bad k.
	for _, path := range []string{"/query/classify?x=1", "/query/classify?x=a,b", "/query/topk?x=0,0&k=0", "/query/density"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", path, resp.StatusCode)
		}
	}

	// Per-request staleness is observed.
	if snap := reg.Snapshot(); snap.Histograms["query.staleness_seconds"].Count == 0 {
		t.Fatal("no staleness observations recorded")
	}
}

// batchReq encodes a CLUQ request for pts.
func batchReq(op byte, k uint16, pts [][]float64) []byte {
	var buf bytes.Buffer
	buf.WriteString(batchMagicQ)
	buf.WriteByte(batchVer)
	buf.WriteByte(op)
	var hdr [8]byte
	binary.LittleEndian.PutUint16(hdr[0:2], k)
	binary.LittleEndian.PutUint32(hdr[2:6], uint32(len(pts)))
	binary.LittleEndian.PutUint16(hdr[6:8], uint16(len(pts[0])))
	buf.Write(hdr[:])
	for _, x := range pts {
		for _, v := range x {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			buf.Write(b[:])
		}
	}
	return buf.Bytes()
}

// checkBatchReply verifies a 200 CLUR reply to a (op, k, pts) request
// bit for bit against the per-point ops on sn. It returns "" or what is
// wrong.
func checkBatchReply(sn *Snapshot, op byte, k int, pts [][]float64, out []byte) string {
	per := map[byte]int{OpClassify: 20, OpDensity: 8, OpTopK: 12 * k}[op]
	if len(out) != batchHdrR+len(pts)*per {
		return fmt.Sprintf("reply is %d bytes, want %d", len(out), batchHdrR+len(pts)*per)
	}
	if string(out[0:4]) != batchMagicR || out[4] != batchVer || out[5] != op {
		return fmt.Sprintf("bad reply header % x", out[:6])
	}
	if v := binary.LittleEndian.Uint64(out[6:14]); v != sn.Version() {
		return fmt.Sprintf("reply version %d, want %d", v, sn.Version())
	}
	if c := binary.LittleEndian.Uint32(out[14:18]); int(c) != len(pts) {
		return fmt.Sprintf("reply n %d, want %d", c, len(pts))
	}
	sc := NewScratch()
	u32 := func(off int) uint32 { return binary.LittleEndian.Uint32(out[off:]) }
	u64 := func(off int) uint64 { return binary.LittleEndian.Uint64(out[off:]) }
	for i, x := range pts {
		rec := batchHdrR + i*per
		switch op {
		case OpClassify:
			want := sn.Classify(x, sc)
			if int(u32(rec)) != want.Component || u64(rec+4) != math.Float64bits(want.LogPosterior) ||
				u64(rec+12) != math.Float64bits(want.LogDensity) {
				return fmt.Sprintf("classify record %d: (%d, %v, %v), want %+v", i, u32(rec),
					math.Float64frombits(u64(rec+4)), math.Float64frombits(u64(rec+12)), want)
			}
		case OpDensity:
			if want := sn.LogDensity(x, sc); u64(rec) != math.Float64bits(want) {
				return fmt.Sprintf("density record %d: %v, want %v", i, math.Float64frombits(u64(rec)), want)
			}
		case OpTopK:
			// Padded with sentinel entries when k > K.
			nbrs := sn.TopK(x, k, sc)
			for j := 0; j < k; j++ {
				comp, d2 := u32(rec+j*12), u64(rec+j*12+4)
				if j < len(nbrs) {
					if int(comp) != nbrs[j].ID || d2 != math.Float64bits(nbrs[j].DistSq) {
						return fmt.Sprintf("topk record %d[%d]: (%d, %v), want %+v", i, j, comp, math.Float64frombits(d2), nbrs[j])
					}
				} else if comp != ^uint32(0) || d2 != math.Float64bits(math.Inf(1)) {
					return fmt.Sprintf("topk record %d[%d]: (%d, %v), want the sentinel", i, j, comp, math.Float64frombits(d2))
				}
			}
		}
	}
	return ""
}

// TestHTTPBinaryBatch: every CLUQ reply equals the per-point ops bit for
// bit, for K ∈ {1, 5, 54} and d ∈ {3, 4} (d = 4 is QuadFormRows' register
// path) and a batch that spans three scoring blocks; malformed requests
// are 4xx.
func TestHTTPBinaryBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	post := func(url string, body []byte) (*http.Response, []byte) {
		resp, err := http.Post(url+"/query/batch", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out bytes.Buffer
		out.ReadFrom(resp.Body)
		return resp, out.Bytes()
	}
	for _, dim := range []int{3, 4} {
		for _, k := range []int{1, 5, 54} {
			p := NewPublisher(Options{})
			mix := randMixture(rng, k, dim)
			sn, err := p.Publish(mix, 3, 100)
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(Handler(p))
			pts := make([][]float64, 2*gaussian.BatchBlock+17)
			for i := range pts {
				pts[i] = randPoint(rng, dim)
			}
			for _, c := range []struct {
				op   byte
				topk int
			}{{OpClassify, 0}, {OpDensity, 0}, {OpTopK, 3}, {OpTopK, k + 2}} {
				resp, out := post(srv.URL, batchReq(c.op, uint16(c.topk), pts))
				if resp.StatusCode != 200 {
					t.Fatalf("K=%d d=%d op %d: status %d: %s", k, dim, c.op, resp.StatusCode, out)
				}
				if msg := checkBatchReply(sn, c.op, c.topk, pts, out); msg != "" {
					t.Fatalf("K=%d d=%d op %d k=%d: %s", k, dim, c.op, c.topk, msg)
				}
			}
			// The per-point ops themselves agree with the source mixture.
			sc := NewScratch()
			for _, x := range pts {
				if got, want := sn.LogDensity(x, sc), mix.LogPDF(x); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("K=%d d=%d: LogDensity %v, mixture LogPDF %v", k, dim, got, want)
				}
			}
			srv.Close()
		}
	}

	// malformed: bad magic, wrong dim, unknown op, GET
	p := NewPublisher(Options{})
	if _, err := p.Publish(randMixture(rng, 5, 3), 3, 100); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(p))
	defer srv.Close()
	pts := [][]float64{randPoint(rng, 3), randPoint(rng, 3)}
	resp, _ := post(srv.URL, []byte("XXXX"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad magic: status %d, want 400", resp.StatusCode)
	}
	bad := batchReq(OpClassify, 0, pts)
	binary.LittleEndian.PutUint16(bad[12:14], 99)
	resp, _ = post(srv.URL, bad)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("wrong dim: status %d, want 400", resp.StatusCode)
	}
	resp, _ = post(srv.URL, batchReq(9, 0, pts))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown op: status %d, want 400", resp.StatusCode)
	}
	getResp, err := http.Get(srv.URL + "/query/batch")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET batch: status %d, want 405", getResp.StatusCode)
	}
}

// TestHTTPNonFinite: a non-finite coordinate is a 400 on every path, and a
// finite point whose result is not finite is a 200 with the field null —
// never the 200 with an empty body encoding/json's UnsupportedValueError
// used to leave behind.
func TestHTTPNonFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	p := NewPublisher(Options{})
	if _, err := p.Publish(randMixture(rng, 3, 2), 7, 100); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(p))
	defer srv.Close()

	for _, path := range []string{"/query/density?x=NaN,0", "/query/classify?x=Inf,0", "/query/topk?x=0,-Inf&k=1"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", path, resp.StatusCode)
		}
	}

	// x = (1e200, 0): the density underflows, the squared distance overflows.
	var den struct {
		Version    uint64   `json:"version"`
		LogDensity *float64 `json:"log_density"`
	}
	getJSON(t, srv.URL+"/query/density?x=1e200,0", &den)
	if den.Version != 7 || den.LogDensity != nil {
		t.Fatalf("density of a far point = %+v, want version 7 and log_density null", den)
	}
	var cls struct {
		Version      uint64   `json:"version"`
		LogPosterior *float64 `json:"log_posterior"`
		LogDensity   *float64 `json:"log_density"`
	}
	getJSON(t, srv.URL+"/query/classify?x=1e200,0", &cls)
	if cls.Version != 7 || cls.LogPosterior != nil || cls.LogDensity != nil {
		t.Fatalf("classify of a far point = %+v, want version 7 and null scores", cls)
	}
	var top struct {
		Neighbors []struct {
			DistSq *float64 `json:"dist_sq"`
		} `json:"neighbors"`
	}
	getJSON(t, srv.URL+"/query/topk?x=1e200,0&k=1", &top)
	if len(top.Neighbors) != 1 || top.Neighbors[0].DistSq != nil {
		t.Fatalf("topk of a far point = %+v, want one neighbor with dist_sq null", top)
	}

	// CLUQ: one NaN coordinate in the second record rejects the batch.
	var req bytes.Buffer
	req.WriteString(batchMagicQ)
	req.WriteByte(batchVer)
	req.WriteByte(OpDensity)
	for _, v := range []any{uint16(0), uint32(2), uint16(2), 0.5, -0.5, 1.0, math.NaN()} {
		binary.Write(&req, binary.LittleEndian, v)
	}
	resp, err := http.Post(srv.URL+"/query/batch", "application/octet-stream", &req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("batch with a NaN coordinate: status %d, want 400", resp.StatusCode)
	}
}

func getJSON(t *testing.T, url string, dst any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
		t.Fatalf("%s: decode: %v", url, err)
	}
}

// TestTopKHugeK: k is clamped to K before anything is sized, so a huge k
// neither allocates k slots nor panics (k = 2⁶² is past makeslice's cap
// limit), over the Go API and over HTTP; and a CLUQ batch whose padded
// topk reply would exceed maxBatchReply is a 400 before any scoring.
func TestTopKHugeK(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	p := NewPublisher(Options{})
	sn, err := p.Publish(randMixture(rng, 5, 3), 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	x := randPoint(rng, 3)
	for _, k := range []int{1 << 20, 1 << 62} {
		sc := NewScratch()
		if nbrs := sn.TopK(x, k, sc); len(nbrs) != 5 || cap(sc.nbrs) > 5 {
			t.Fatalf("TopK(k=%d): %d neighbors in a %d-slot buffer, want 5 in at most 5", k, len(nbrs), cap(sc.nbrs))
		}
	}

	srv := httptest.NewServer(Handler(p))
	defer srv.Close()
	var top struct {
		Neighbors []struct {
			Component int `json:"component"`
		} `json:"neighbors"`
	}
	getJSON(t, fmt.Sprintf("%s/query/topk?x=0,0,0&k=%d", srv.URL, int64(1)<<62), &top)
	if len(top.Neighbors) != 5 {
		t.Fatalf("topk k=2^62: %d neighbors, want 5", len(top.Neighbors))
	}

	// 18 + 5600·1000·12 bytes is just over 64 MiB.
	pts := make([][]float64, 5600)
	for i := range pts {
		pts[i] = randPoint(rng, 3)
	}
	resp, err := http.Post(srv.URL+"/query/batch", "application/octet-stream", bytes.NewReader(batchReq(OpTopK, 1000, pts)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("topk batch with a %d-byte reply: status %d, want 400", batchHdrR+5600*1000*12, resp.StatusCode)
	}
}

// FuzzBatch throws arbitrary bodies at POST /query/batch: it must never
// panic, must answer 200 exactly when the request is well formed (header,
// dim, n, op, k, a full payload of finite coordinates, a reply within
// maxBatchReply) and 400 otherwise, and every 200 must equal the
// per-point ops bit for bit.
func FuzzBatch(f *testing.F) {
	rng := rand.New(rand.NewSource(25))
	p := NewPublisher(Options{})
	sn, err := p.Publish(randMixture(rng, 3, 2), 9, 100)
	if err != nil {
		f.Fatal(err)
	}
	h := Handler(p)
	pts := [][]float64{{0.5, -1}, {3, 4}, {-7, 1e-310}, {1e200, 0}}
	for _, op := range []byte{OpClassify, OpDensity, OpTopK, 0, 4} {
		f.Add(batchReq(op, 2, pts))
		f.Add(batchReq(op, 65535, pts[:1]))
	}
	trunc := batchReq(OpDensity, 0, pts)
	f.Add(trunc[:len(trunc)-3])
	f.Add([]byte("CLUQ"))
	f.Add(append(batchReq(OpClassify, 0, pts), 1, 2, 3))
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query/batch", bytes.NewReader(body)))
		decoded, ok := decodeBatchReq(body, sn.Dim())
		switch {
		case !ok && rec.Code != http.StatusBadRequest:
			t.Fatalf("malformed request: status %d, want 400", rec.Code)
		case ok && rec.Code != http.StatusOK:
			t.Fatalf("well-formed request: status %d: %s", rec.Code, rec.Body.Bytes())
		case ok:
			if msg := checkBatchReply(sn, decoded.op, decoded.k, decoded.pts, rec.Body.Bytes()); msg != "" {
				t.Fatal(msg)
			}
		}
	})
}

type decodedBatch struct {
	op  byte
	k   int
	pts [][]float64
}

// decodeBatchReq is the reference reading of a CLUQ request: the request
// and whether the handler must accept it.
func decodeBatchReq(body []byte, dim int) (decodedBatch, bool) {
	if len(body) < batchHdrQ || string(body[:4]) != batchMagicQ || body[4] != batchVer {
		return decodedBatch{}, false
	}
	d := decodedBatch{op: body[5], k: int(binary.LittleEndian.Uint16(body[6:8]))}
	n := int(binary.LittleEndian.Uint32(body[8:12]))
	per := map[byte]int{OpClassify: 20, OpDensity: 8, OpTopK: 12 * d.k}[d.op]
	if int(binary.LittleEndian.Uint16(body[12:14])) != dim || n < 1 || n > maxBatch || per == 0 ||
		batchHdrR+n*per > maxBatchReply || len(body) < batchHdrQ+n*dim*8 {
		return decodedBatch{}, false
	}
	for i := 0; i < n; i++ {
		x := make([]float64, dim)
		for j := range x {
			x[j] = math.Float64frombits(binary.LittleEndian.Uint64(body[batchHdrQ+(i*dim+j)*8:]))
			if !finite(x[j]) {
				return decodedBatch{}, false
			}
		}
		d.pts = append(d.pts, x)
	}
	return d, true
}
