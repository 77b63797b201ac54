package query

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

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

func TestHTTPBinaryBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	p := NewPublisher(Options{})
	mix := randMixture(rng, 5, 3)
	if _, err := p.Publish(mix, 3, 100); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(p))
	defer srv.Close()

	const n, dim = 17, 3
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = randPoint(rng, dim)
	}
	buildReq := func(op byte, k uint16) []byte {
		var buf bytes.Buffer
		buf.WriteString(batchMagicQ)
		buf.WriteByte(batchVer)
		buf.WriteByte(op)
		var hdr [8]byte
		binary.LittleEndian.PutUint16(hdr[0:2], k)
		binary.LittleEndian.PutUint32(hdr[2:6], n)
		binary.LittleEndian.PutUint16(hdr[6:8], dim)
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
	post := func(body []byte) (*http.Response, []byte) {
		resp, err := http.Post(srv.URL+"/query/batch", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out bytes.Buffer
		out.ReadFrom(resp.Body)
		return resp, out.Bytes()
	}

	sc := NewScratch()

	// classify
	resp, out := post(buildReq(OpClassify, 0))
	if resp.StatusCode != 200 {
		t.Fatalf("classify batch: status %d: %s", resp.StatusCode, out)
	}
	if string(out[0:4]) != batchMagicR || out[4] != batchVer || out[5] != OpClassify {
		t.Fatalf("bad response header % x", out[:6])
	}
	if v := binary.LittleEndian.Uint64(out[6:14]); v != 3 {
		t.Fatalf("response version %d, want 3", v)
	}
	if c := binary.LittleEndian.Uint32(out[14:18]); c != n {
		t.Fatalf("response n %d, want %d", c, n)
	}
	rec := out[18:]
	for i, x := range pts {
		want := p.Current().Classify(x, sc)
		comp := binary.LittleEndian.Uint32(rec[i*20:])
		ld := math.Float64frombits(binary.LittleEndian.Uint64(rec[i*20+12:]))
		if int(comp) != want.Component || ld != want.LogDensity {
			t.Fatalf("record %d: comp %d density %v, want %d %v", i, comp, ld, want.Component, want.LogDensity)
		}
	}

	// density
	_, out = post(buildReq(OpDensity, 0))
	rec = out[18:]
	for i, x := range pts {
		got := math.Float64frombits(binary.LittleEndian.Uint64(rec[i*8:]))
		if want := p.Current().LogDensity(x, sc); got != want {
			t.Fatalf("density record %d: %v, want %v", i, got, want)
		}
	}

	// topk with k > K: padded with sentinel entries
	k := mix.K() + 2
	_, out = post(buildReq(OpTopK, uint16(k)))
	rec = out[18:]
	stride := k * 12
	for i, x := range pts {
		wantN := p.Current().TopK(x, k, sc)
		for j := 0; j < k; j++ {
			comp := binary.LittleEndian.Uint32(rec[i*stride+j*12:])
			d2 := math.Float64frombits(binary.LittleEndian.Uint64(rec[i*stride+j*12+4:]))
			if j < len(wantN) {
				if int(comp) != wantN[j].ID || d2 != wantN[j].DistSq {
					t.Fatalf("topk record %d[%d]: comp %d d2 %v, want %+v", i, j, comp, d2, wantN[j])
				}
			} else if comp != ^uint32(0) || !math.IsInf(d2, 1) {
				t.Fatalf("topk record %d[%d]: expected sentinel, got comp %d d2 %v", i, j, comp, d2)
			}
		}
	}

	// malformed: bad magic, wrong dim, GET
	resp, _ = post([]byte("XXXX"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad magic: status %d, want 400", resp.StatusCode)
	}
	bad := buildReq(OpClassify, 0)
	binary.LittleEndian.PutUint16(bad[12:14], 99)
	resp, _ = post(bad)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("wrong dim: status %d, want 400", resp.StatusCode)
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

// TestHTTPServesShardSet: the handler accepts a ShardSet source and
// serves the reduced mixture.
func TestHTTPServesShardSet(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	shardA, shardB := NewPublisher(Options{}), NewPublisher(Options{})
	if _, err := shardA.Publish(randMixture(rng, 2, 2), 1, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := shardB.Publish(randMixture(rng, 3, 2), 5, 30); err != nil {
		t.Fatal(err)
	}
	ss := NewShardSet([]*Publisher{shardA, shardB}, Options{})
	if _, err := ss.Reduce(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(ss))
	defer srv.Close()
	var meta struct {
		Version uint64  `json:"version"`
		K       int     `json:"k"`
		Mass    float64 `json:"mass"`
	}
	getJSON(t, srv.URL+"/query/snapshot", &meta)
	if meta.Version != 6 || meta.K != 5 || meta.Mass != 40 {
		t.Fatalf("shard-set snapshot meta = %+v", meta)
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
