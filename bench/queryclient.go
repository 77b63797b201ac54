package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync/atomic"
	"time"

	"cludistream/internal/linalg"
	"cludistream/internal/query"
)

// batchReply is what the client keeps of one CLUR reply for the
// post-run check against the retained snapshot of its version: the first
// record's log-density (classify, density) or nearest distance (topk).
type batchReply struct {
	body    int // index into the request pool; op is body%3+1
	version uint64
	bits    uint64
}

// queryClient is one closed-loop CLUQ client over POST /query/batch:
// 256 points per batch, ops cycling classify/density/topk (k=3).
type queryClient struct {
	url    string
	hc     *http.Client
	points [][]linalg.Vector
	bodies [][]byte

	rtts    []time.Duration
	replies []batchReply
	failed  int
	lastVer uint64
	wall    time.Duration
}

func newQueryClient(addr string, points [][]linalg.Vector) *queryClient {
	q := &queryClient{
		url:    "http://" + addr + "/query/batch",
		hc:     &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		points: points,
		bodies: make([][]byte, len(points)),
		rtts:   make([]time.Duration, 0, 1<<16),
	}
	for b, pts := range points {
		buf := make([]byte, 0, 14+len(pts)*dim*8)
		buf = append(buf, "CLUQ"...)
		buf = append(buf, 1, byte(b%3+1))
		buf = binary.LittleEndian.AppendUint16(buf, topK)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(pts)))
		buf = binary.LittleEndian.AppendUint16(buf, dim)
		for _, x := range pts {
			for _, v := range x {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
			}
		}
		q.bodies[b] = buf
	}
	return q
}

func (q *queryClient) close() { q.hc.CloseIdleConnections() }

// run sends batches back to back (a closed loop): n of them, or — when n
// is 0 — until stop is set.
func (q *queryClient) run(n int, stop *atomic.Bool) {
	start := time.Now()
	for i := 0; (n == 0 || i < n) && !stop.Load(); i++ {
		b := i % len(q.bodies)
		t0 := time.Now()
		rep, err := q.batch(b)
		q.rtts = append(q.rtts, time.Since(t0))
		if err != nil {
			q.failed++
			continue
		}
		q.replies = append(q.replies, rep)
	}
	q.wall = time.Since(start)
}

// batch performs one round trip and validates the reply's framing: it
// parses, carries n results of the right size, and its snapshot version
// does not go backwards.
func (q *queryClient) batch(b int) (batchReply, error) {
	resp, err := q.hc.Post(q.url, "application/octet-stream", bytes.NewReader(q.bodies[b]))
	if err != nil {
		return batchReply{}, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return batchReply{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return batchReply{}, fmt.Errorf("batch: HTTP %d: %s", resp.StatusCode, out)
	}
	op := b%3 + 1
	per := 8 // density: one f64 per record
	switch op {
	case query.OpClassify:
		per = 4 + 8 + 8
	case query.OpTopK:
		per = topK * (4 + 8)
	}
	n := len(q.points[b])
	if len(out) != 18+n*per || string(out[:4]) != "CLUR" || out[4] != 1 || int(out[5]) != op ||
		int(binary.LittleEndian.Uint32(out[14:18])) != n {
		return batchReply{}, fmt.Errorf("batch: malformed CLUR reply (%d bytes, op %d)", len(out), op)
	}
	ver := binary.LittleEndian.Uint64(out[6:14])
	if ver < q.lastVer {
		return batchReply{}, fmt.Errorf("batch: snapshot version went back %d → %d", q.lastVer, ver)
	}
	q.lastVer = ver
	off := 18
	if op != query.OpDensity {
		off += 4 // skip the component index
	}
	if op == query.OpClassify {
		off += 8 // skip the log-posterior
	}
	return batchReply{body: b, version: ver, bits: binary.LittleEndian.Uint64(out[off:])}, nil
}

// verify recomputes every kept reply value on the harness's retained
// snapshot of the reply's version and returns how many do not match
// bit for bit (a reply from a version the harness never published counts).
func (q *queryClient) verify(snaps map[uint64]*query.Snapshot) int {
	bad := 0
	sc := query.NewScratch()
	for _, r := range q.replies {
		sn := snaps[r.version]
		if sn == nil {
			bad++
			continue
		}
		x := q.points[r.body][0]
		var want float64
		if r.body%3+1 == query.OpTopK {
			want = sn.TopK(x, topK, sc)[0].DistSq
		} else {
			want = sn.LogDensity(x, sc)
		}
		if math.Float64bits(want) != r.bits {
			bad++
		}
	}
	return bad
}
