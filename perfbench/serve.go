package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"stz/internal/codec"
	"stz/internal/core"
	"stz/internal/datasets"
	"stz/internal/grid"
	"stz/internal/rawio"
	"stz/internal/stzd"
)

// serve: open-loop HTTP against an in-process stzd (server Workers 1,
// admission 2). Two connections send at a fixed rate over an sz3 archive
// of Nyx f32 (8 z-slabs) plus a half-size grid, with the soak mix. Box
// windows are drawn zipfian from a seeded pool, so about two thirds of the
// box reads repeat a window and hit the hot-box cache. This is the only
// workload through HTTP, admission, the box cache and zero-copy serving,
// and it puts writes beside reads.

const (
	// serveRate is the offered load in requests per second: half the
	// box-only capacity and a quarter of this mix's capacity (~300/s) on
	// a quiet 2-vCPU machine, so that neighbours slowing the machine 2×
	// do not push the server into saturation.
	serveRate  = 75
	serveConns = 2
	serveSlabs = 8
	// zipfS and zipfV shape the box-window popularity. With a pool of 3/4
	// of the expected box reads, about 65% of the reads repeat a window.
	// At 50% the median request would sit on the cliff between cache hits
	// (~1 ms) and decodes (~10 ms): cache hits, sections and PUTs would be
	// almost exactly half of the mix, and p50_ms would flip between the two
	// from seed to seed.
	zipfS = 1.1
	zipfV = 8
)

// serveMix is the soak mix: relative request shares per operation.
var serveMix = []struct {
	name   string
	weight int
}{
	{"box", 5},      // random 16³ sub-box decodes, through the box cache
	{"section", 2},  // slab-aligned zero-copy section reads
	{"decomp", 2},   // full decompress of the half-size archive
	{"compress", 1}, // full compress of the half-size grid
	{"put", 1},      // archive store churn
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func checksum(b []byte) uint32 { return crc32.Checksum(b, crcTable) }

type serveState struct {
	f      *field[float32] // the big grid; the probe rounds run on it
	full   *grid.Grid[float32]
	big    []byte // 8-slab sz3 archive of f, resident as "big"
	small  []byte // 2-slab sz3 archive of the half-size grid
	hdr    codec.Header
	ts     *httptest.Server
	client *http.Client

	smallRaw    []byte // request body of compress
	compressURL string
	// Reference checksums computed in process during set-up.
	sectionSum  []uint32 // per slab
	decompSum   uint32
	compressSum uint32
	putReply    archiveReply // the reply to a PUT of small, id aside
}

// archiveReply is the body of a PUT reply: the stored archive's entry.
type archiveReply struct {
	ID     string `json:"id"`
	Codec  string `json:"codec"`
	Dims   string `json:"dims"`
	Dtype  string `json:"dtype"`
	Chunks int    `json:"chunks"`
	Bytes  int64  `json:"bytes"`
	Cost   int64  `json:"cost"`
}

// parseArchiveReply decodes a PUT reply, rejecting unknown fields.
func parseArchiveReply(body []byte) (archiveReply, bool) {
	var e archiveReply
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return e, dec.Decode(&e) == nil
}

func setupServe(o opts) (*serveState, error) {
	nyxSeed, _ := seeds(o.seed)
	n := o.size
	st := &serveState{f: newField("nyx", datasets.Nyx(n, n, n, nyxSeed), 1e-3)}
	g, eb := st.f.g, st.f.eb
	var err error
	if st.big, err = codec.Encode("sz3", g, codec.Config{EB: eb, Workers: 1, Chunks: serveSlabs}); err != nil {
		return nil, err
	}
	if st.hdr, err = codec.ParseHeader(st.big); err != nil {
		return nil, err
	}
	if st.full, err = codec.Decode[float32](st.big, 1); err != nil {
		return nil, err
	}
	h := n / 2
	small := g.ExtractBox(grid.Box{Z0: h / 2, Z1: h/2 + h, Y0: h / 2, Y1: h/2 + h, X0: h / 2, X1: h/2 + h})
	smallCfg := codec.Config{EB: eb, Workers: 1, Chunks: 2}
	if st.small, err = codec.Encode("sz3", small, smallCfg); err != nil {
		return nil, err
	}
	st.compressSum = checksum(st.small) // the server must produce this archive
	// sz3 decodes boxes natively, so the store charges the raw bytes only.
	st.putReply = archiveReply{
		Codec: "sz3", Dims: fmt.Sprintf("%dx%dx%d", small.Nz, small.Ny, small.Nx), Dtype: "f32",
		Chunks: 2, Bytes: int64(len(st.small)), Cost: int64(len(st.small)),
	}
	st.smallRaw = make([]byte, small.Len()*4)
	rawio.PutValues(st.smallRaw, small.Data)
	smallDec, err := codec.Decode[float32](st.small, 1)
	if err != nil {
		return nil, err
	}
	st.decompSum = checksum(rawBytes(smallDec))
	arc, err := codec.OpenReaderAt[float32](st.big)
	if err != nil {
		return nil, err
	}
	for i := 0; i < st.hdr.Chunks(); i++ {
		sec, err := arc.RawSection(i)
		if err != nil {
			return nil, err
		}
		st.sectionSum = append(st.sectionSum, checksum(sec))
	}

	st.ts = stzd.StartTest(stzd.Options{Workers: 1, MaxInflight: serveConns})
	st.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns, DisableCompression: true,
	}}
	st.compressURL = fmt.Sprintf("%s/v1/compress?codec=sz3&dims=%dx%dx%d&dtype=f32&eb=%s&chunks=2",
		st.ts.URL, small.Nz, small.Ny, small.Nx, strconv.FormatFloat(eb, 'g', -1, 64))
	if err := st.put("big", st.big); err != nil {
		st.close()
		return nil, err
	}
	// Warm the pools: one request of each kind, box windows off any pool.
	wb := newWindowStream(nyxSeed^0x3a3a, n).next()
	warm := []serveJob{
		{op: "box", box: wb, boxSum: checksum(rawBytes(st.full.ExtractBox(wb)))},
		{op: "section"}, {op: "decomp"}, {op: "compress"}, {op: "put"},
	}
	for _, j := range warm {
		if r := st.do(j); r.err != nil {
			st.close()
			return nil, fmt.Errorf("warm-up %s: %w", j.op, r.err)
		}
	}
	return st, nil
}

func (st *serveState) close() {
	st.client.CloseIdleConnections()
	st.ts.Close()
}

func rawBytes(g *grid.Grid[float32]) []byte {
	b := make([]byte, g.Len()*4)
	rawio.PutValues(b, g.Data)
	return b
}

func (st *serveState) put(id string, archive []byte) error {
	req, err := http.NewRequest(http.MethodPut, st.ts.URL+"/v1/archives/"+id, bytes.NewReader(archive))
	if err != nil {
		return err
	}
	resp, err := st.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("PUT %s: status %d", id, resp.StatusCode)
	}
	if e, ok := parseArchiveReply(body); !ok || e.ID != id || e.Bytes != int64(len(archive)) {
		return fmt.Errorf("PUT %s: reply %q does not describe the stored archive", id, body)
	}
	return nil
}

// serveJob is one scheduled request, due at offset at from the start of
// its load phase.
type serveJob struct {
	at      time.Duration
	op      string
	box     grid.Box
	boxSum  uint32
	repeat  bool // box window requested earlier in the run
	section int
	putID   int
}

// reply is the outcome of one request.
type reply struct {
	sent, done time.Time
	status     int
	cache      string // X-Stz-Cache of box replies
	err        error  // transport error or failed check
	wrong      bool   // the reply arrived but its content was wrong
}

// account counts the reply into rn: a wrong reply fails its check, an
// error status or transport failure is a refused operation.
func (r reply) account(rn *runner) {
	switch {
	case r.err == nil:
		rn.check(true, "")
	case r.wrong:
		rn.check(false, "%v", r.err)
	default:
		rn.refused("%v", r.err)
	}
}

// do issues job and checks the reply against the set-up references.
func (st *serveState) do(j serveJob) reply {
	var req *http.Request
	var err error
	base := st.ts.URL
	switch j.op {
	case "box":
		b := j.box
		req, err = http.NewRequest(http.MethodGet, fmt.Sprintf("%s/v1/archives/big/box?box=%d:%d,%d:%d,%d:%d",
			base, b.Z0, b.Z1, b.Y0, b.Y1, b.X0, b.X1), nil)
	case "section":
		zb := st.hdr.ChunkBounds
		req, err = http.NewRequest(http.MethodGet, fmt.Sprintf("%s/v1/archives/big/box?box=%d:%d,0:%d,0:%d",
			base, zb[j.section], zb[j.section+1], st.hdr.Ny, st.hdr.Nx), nil)
		if err == nil {
			req.Header.Set("Accept", stzd.SectionContentType)
		}
	case "decomp":
		req, err = http.NewRequest(http.MethodPost, base+"/v1/decompress", bytes.NewReader(st.small))
	case "compress":
		req, err = http.NewRequest(http.MethodPost, st.compressURL, bytes.NewReader(st.smallRaw))
	case "put":
		req, err = http.NewRequest(http.MethodPut, fmt.Sprintf("%s/v1/archives/put-%d", base, j.putID), bytes.NewReader(st.small))
	}
	if err != nil {
		return reply{err: err}
	}
	r := reply{sent: time.Now()}
	resp, err := st.client.Do(req)
	if err != nil {
		r.done, r.err = time.Now(), err
		return r
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.done, r.status, r.cache = time.Now(), resp.StatusCode, resp.Header.Get("X-Stz-Cache")
	if err != nil {
		r.err = err
		return r
	}
	okStatus := resp.StatusCode == http.StatusOK || (j.op == "put" && resp.StatusCode == http.StatusCreated)
	if !okStatus {
		r.err = fmt.Errorf("%s: status %d: %s", j.op, resp.StatusCode, strings.TrimSpace(string(body)))
		return r
	}
	var ok bool
	switch j.op {
	case "box":
		ok = checksum(body) == j.boxSum
	case "section":
		ok = resp.Header.Get("X-Stz-Zero-Copy") == "1" && checksum(body) == st.sectionSum[j.section]
	case "decomp":
		ok = checksum(body) == st.decompSum
	case "compress":
		ok = checksum(body) == st.compressSum
	case "put":
		want := st.putReply
		want.ID = fmt.Sprintf("put-%d", j.putID)
		got, parsed := parseArchiveReply(body)
		ok = parsed && got == want
	}
	if !ok {
		r.err, r.wrong = fmt.Errorf("%s: reply differs from the set-up reference", j.op), true
	}
	return r
}

// schedule builds the seeded open-loop schedule of one load phase: the op
// sequence, the zipfian box windows of a fresh pool with their reference
// checksums, the slab of each section read and the id of each PUT.
func (st *serveState) schedule(seed int64, d time.Duration) []serveJob {
	rng := rand.New(rand.NewSource(seed))
	n := max(1, int(serveRate*d.Seconds()))
	var weights, boxWeight int
	for _, m := range serveMix {
		weights += m.weight
		if m.name == "box" {
			boxWeight = m.weight
		}
	}
	poolSize := max(2, 3*n*boxWeight/weights/4)
	windows := newWindowStream(rng.Int63(), st.hdr.Nz)
	pool := make([]grid.Box, poolSize)
	for i := range pool {
		pool[i] = windows.next()
	}
	sums := map[uint64]uint32{}
	zipf := rand.NewZipf(rng, zipfS, zipfV, uint64(poolSize-1))
	seen := map[uint64]bool{}
	jobs := make([]serveJob, n)
	interval := time.Second / serveRate
	for i := range jobs {
		w := rng.Intn(weights)
		var op string
		for _, m := range serveMix {
			if w -= m.weight; w < 0 {
				op = m.name
				break
			}
		}
		j := serveJob{op: op, at: time.Duration(i) * interval}
		switch op {
		case "box":
			k := zipf.Uint64()
			if _, ok := sums[k]; !ok {
				sums[k] = checksum(rawBytes(st.full.ExtractBox(pool[k])))
			}
			j.box, j.boxSum, j.repeat = pool[k], sums[k], seen[k]
			seen[k] = true
		case "section":
			j.section = rng.Intn(st.hdr.Chunks())
		case "put":
			j.putID = i % 4
		}
		jobs[i] = j
	}
	return jobs
}

// loadRec is one load phase: every job and its reply, index-aligned.
type loadRec struct {
	jobs    []serveJob
	replies []reply
	start   time.Time
}

// load runs jobs open loop on serveConns workers: job i is due at
// start + jobs[i].at regardless of how earlier requests fared.
func (st *serveState) load(rn *runner, jobs []serveJob) loadRec {
	rec := loadRec{jobs: jobs, replies: make([]reply, len(jobs))}
	next := make(chan int, len(jobs)) // the whole schedule is queued up front
	for i := range jobs {
		next <- i
	}
	close(next)
	rec.start = time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < serveConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				due := rec.start.Add(jobs[i].at)
				time.Sleep(time.Until(due))
				r := st.do(jobs[i])
				rec.replies[i] = r
				op := rn.nextOp()
				root := rn.tr.record("loadgen.request", due, r.done, -1, op, jobs[i].op)
				rn.tr.record("http."+jobs[i].op, r.sent, r.done, root, op, r.cache)
				r.account(rn)
			}
		}()
	}
	wg.Wait()
	return rec
}

// latency returns the open-loop latency of reply i in milliseconds,
// charged from the intended start. A failed request is charged the whole
// phase, so failures count as missing any latency limit.
func (rec loadRec) latency(i int, phase time.Duration) float64 {
	r := rec.replies[i]
	if r.err != nil {
		return ms(phase)
	}
	return ms(r.done.Sub(rec.start.Add(rec.jobs[i].at)))
}

func (rec loadRec) latencies(op string, phase time.Duration) []float64 {
	var out []float64
	for i, j := range rec.jobs {
		if op == "" || j.op == op {
			out = append(out, rec.latency(i, phase))
		}
	}
	return out
}

// serviceTimes returns send-to-reply times in milliseconds of the replies
// to op whose cache disposition matches cache (any when empty).
func (rec loadRec) serviceTimes(op, cache string) []float64 {
	var out []float64
	for i, j := range rec.jobs {
		r := rec.replies[i]
		if (op == "" || j.op == op) && (cache == "" || r.cache == cache) && r.err == nil {
			out = append(out, ms(r.done.Sub(r.sent)))
		}
	}
	return out
}

// zeroCopies reads the count of zero-copy replies from /v1/stats.
func (st *serveState) zeroCopies() (float64, error) {
	resp, err := st.client.Get(st.ts.URL + "/v1/stats")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var s struct {
		ZeroCopy struct {
			Served float64 `json:"served"`
		} `json:"zero_copy"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return 0, fmt.Errorf("reading /v1/stats: %w", err)
	}
	return s.ZeroCopy.Served, nil
}

func runServe(rn *runner, o opts) (metricSet, error) {
	var st *serveState
	setup, err := setupReps(o.setupReps(), func() (func(), error) {
		var err error
		st, err = setupServe(o)
		if err != nil {
			return nil, err
		}
		return st.close, nil
	})
	if err != nil {
		return nil, err
	}
	defer st.close()
	fields := []codecField{st.f}
	m := metricSet{}
	phase := o.mainWindow()
	if !o.trace {
		jobs := st.schedule(o.seed, phase)
		var rec loadRec
		probe := probed(rn, fields, o, func() {
			runtime.GC()
			rec = st.load(rn, jobs)
		})
		codecMetrics(m, fields, probe)
		m.set("setup_s", setup)
		m.set("p50_ms", median(rec.latencies("", phase)))
		return m, nil
	}

	base := st.load(rn, st.schedule(o.seed, phase))
	rn.tr.on = true
	// serve makes no STZ box queries: the core layers come from traced
	// codec rounds, the decode stages from their full decompressions.
	var stats []core.Stats
	for _, r := range codecRounds(rn, fields, probeRounds, 0, 1) {
		stats = append(stats, r.stats)
	}
	decodeStageMetrics(m, stats)
	jobs := st.schedule(o.seed+1, phase)
	z0, err := st.zeroCopies()
	if err != nil {
		return nil, err
	}
	var rec loadRec
	ph := measurePhase(func() { rec = st.load(rn, jobs) })
	z1, err := st.zeroCopies()
	if err != nil {
		return nil, err
	}
	ph.set(m, len(jobs))
	m.set("p99_ms", quantile(rec.latencies("", phase), 0.99))
	m.set("trace.overhead_pct", overhead(median(base.serviceTimes("", "")), median(rec.serviceTimes("", ""))))

	var sections, rejected, repeats, boxes, hits, misses float64
	var lag []float64
	for i, j := range rec.jobs {
		r := rec.replies[i]
		switch j.op {
		case "section":
			sections++
		case "box":
			boxes++
			if j.repeat {
				repeats++
			}
			// The reply's X-Stz-Cache, not /v1/stats: the server counts a
			// miss twice (the lookup and its re-check under single-flight).
			switch r.cache {
			case "hit":
				hits++
			case "miss":
				misses++
			}
		}
		if r.status == http.StatusServiceUnavailable {
			rejected++
		}
		if !r.sent.IsZero() {
			lag = append(lag, ms(r.sent.Sub(rec.start.Add(j.at))))
		}
	}
	m.set("stzd.box_cache_hit_pct", pct(hits, hits+misses))
	m.set("stzd.zero_copy_pct", pct(z1-z0, sections))
	m.set("stzd.rejected_pct", pct(rejected, float64(len(jobs))))
	m.set("loadgen.lag_p99_ms", quantile(lag, 0.99))
	m.set("loadgen.repeat_pct", pct(repeats, boxes))
	for _, mx := range serveMix {
		lat := rec.latencies(mx.name, phase)
		m.set("serve."+mx.name+"_p50_ms", median(lat))
		m.set("serve."+mx.name+"_p99_ms", quantile(lat, 0.99))
	}

	boxMs, readPerVoxel, err := st.replayBoxes(rn, rec.jobs)
	if err != nil {
		return nil, err
	}
	m.set("codec.box_ms", boxMs)
	m.set("codec.box_read_B_per_voxel", readPerVoxel)
	m.set("stzd.http_overhead_ms", median(rec.serviceTimes("box", "miss"))-boxMs)

	if err := fieldLayers(rn, m, fields, [][]byte{st.big}); err != nil {
		return nil, err
	}
	m.set("parallel.speedup", speedup(rn, fields, 2))
	return m, nil
}

// replayBoxes decodes the distinct box windows of jobs in process through
// codec.ReaderAt, a fresh reader per query, and returns the median time
// and the mean archive bytes read per box voxel.
func (st *serveState) replayBoxes(rn *runner, jobs []serveJob) (float64, float64, error) {
	var times, perVoxel []float64
	done := map[grid.Box]bool{}
	for _, j := range jobs {
		if j.op != "box" || done[j.box] {
			continue
		}
		done[j.box] = true
		r, err := codec.OpenReaderAt[float32](st.big)
		if err != nil {
			return 0, 0, err
		}
		var out *grid.Grid[float32]
		d := rn.tr.timed("codec.box", "", -1, rn.nextOp(), func() { out, err = r.DecompressBox(j.box) })
		rn.check(err == nil && checksum(rawBytes(out)) == j.boxSum, "in-process box %v differs from the set-up reference (%v)", j.box, err)
		times = append(times, ms(d))
		perVoxel = append(perVoxel, float64(r.BytesRead())/float64(j.box.Volume()))
	}
	return median(times), mean(perVoxel), nil
}

// noServe sets the serving metrics of a workload that sends no HTTP
// requests and decodes no codec boxes: there is nothing for them to
// measure, so they read 0.
func noServe(m metricSet) {
	for _, s := range perLayer {
		if strings.HasPrefix(s.name, "stzd.") || strings.HasPrefix(s.name, "serve.") || strings.HasPrefix(s.name, "codec.box") {
			m.set(s.name, 0)
		}
	}
}
