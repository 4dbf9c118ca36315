package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"lcshortcut/internal/core"
	"lcshortcut/internal/graph"
	"lcshortcut/internal/partition"
	"lcshortcut/internal/scenario"
	"lcshortcut/internal/shortcutsvc"
	"lcshortcut/internal/tree"
)

// svcFamilies are the registry families both svc workloads query: planar,
// genus-bounded, geometric, random, scale-free, regular and community.
var svcFamilies = []string{"grid", "surface", "geometric", "er-sparse", "ba", "regular", "caveman"}

const (
	// numClients is the closed loop's client count: each client waits for
	// its reply before it sends again, on its own keep-alive connection.
	numClients = 2
	hotParts   = 32
	hotZipfS   = 1.2
	// hotStreamLen is each client's pre-generated svc-hot request stream;
	// a client that reaches its end starts it again.
	hotStreamLen = 1 << 16
	// coldKeyCount bounds the svc-cold key list, several times what two
	// clients complete in a minute.
	coldKeyCount = 8192
	// coldCacheEntries bounds svc-cold's cache below the default 256. A
	// never-repeating workload only evicts, and at 256 entries a run holds
	// about 800 MB, whose page faults and collection spread the median query
	// time by 14% between runs against about 2% at 32 entries.
	coldCacheEntries = 32
	// checkSample is how many svc-cold replies are re-derived by a direct
	// core.FindShortcutAuto run after the timed loop.
	checkSample = 6
)

// svcKey is one query's inputs.
type svcKey struct {
	family  string
	n       int
	parts   int
	seed    int64 // graph seed, also the construction seed of the reference form
	pseed   int64
	ref     shortcutsvc.Request
	refBody []byte
	// The upload form (svc-hot only): the same graph as an edge list.
	upload     shortcutsvc.Request
	uploadBody []byte
}

func (k *svcKey) String() string { return fmt.Sprintf("%s-n%d/seed%d", k.family, k.n, k.seed) }

func newSvcKey(family string, n, parts int, seed, pseed int64) (svcKey, error) {
	k := svcKey{family: family, n: n, parts: parts, seed: seed, pseed: pseed}
	k.ref = shortcutsvc.Request{Family: family, N: n, Seed: seed,
		Partition: shortcutsvc.PartitionSpec{Kind: "voronoi", Parts: parts, Seed: pseed}}
	var err error
	k.refBody, err = json.Marshal(&k.ref)
	return k, err
}

// hotKeys returns svc-hot's 28 keys in zipf rank order: the seven families
// at n = 1024 and 2048, twice, each with its own graph and partition seed.
// The rank order is fixed, so the seed changes the graphs and the stream
// but not which family and size are most popular.
func hotKeys(seed int64) ([]svcKey, error) {
	var keys []svcKey
	for rep := 0; rep < 2; rep++ {
		for _, n := range []int{1024, 2048} {
			for _, f := range svcFamilies {
				i := int64(len(keys))
				k, err := newSvcKey(f, n, hotParts, mix(seed, i), mix(seed, 100+i))
				if err != nil {
					return nil, err
				}
				g := scenario.MustGet(f).Build(n, k.seed)
				edges := make([][2]int, g.NumEdges())
				for e, ed := range g.Edges() {
					edges[e] = [2]int{ed.U, ed.V}
				}
				k.upload = shortcutsvc.Request{Nodes: g.NumNodes(), Edges: edges, Partition: k.ref.Partition}
				if k.uploadBody, err = json.Marshal(&k.upload); err != nil {
					return nil, err
				}
				keys = append(keys, k)
			}
		}
	}
	return keys, nil
}

// hotReq is one svc-hot request: a key and the form that names it.
type hotReq struct {
	key    int
	upload bool
}

// hotStream returns client's request stream: keys drawn from zipf(s=1.2)
// over the numKeys ranks, one request in four in the upload form.
func hotStream(seed int64, client, numKeys, length int) []hotReq {
	rng := rand.New(rand.NewSource(mix(seed, int64(1000+client))))
	z := rand.NewZipf(rng, hotZipfS, 1, uint64(numKeys-1))
	s := make([]hotReq, length)
	for i := range s {
		s[i] = hotReq{key: int(z.Uint64()), upload: rng.Intn(4) == 0}
	}
	return s
}

// coldKeys returns svc-cold's key list: the seven families at n = 2048 and
// 4096 in seeded blocks that each hold every pair once, ⌊√n⌋ Voronoi parts,
// and graph and partition seeds unique to the position, so no key repeats.
func coldKeys(seed int64, count int) ([]svcKey, error) {
	type pair struct {
		family string
		n      int
	}
	var pairs []pair
	for _, n := range []int{2048, 4096} {
		for _, f := range svcFamilies {
			pairs = append(pairs, pair{f, n})
		}
	}
	rng := rand.New(rand.NewSource(mix(seed, 2000)))
	keys := make([]svcKey, 0, count)
	var block []int
	for i := 0; i < count; i++ {
		if len(block) == 0 {
			block = rng.Perm(len(pairs))
		}
		p := pairs[block[0]]
		block = block[1:]
		parts := int(math.Sqrt(float64(scenario.MustGet(p.family).NumNodes(p.n))))
		k, err := newSvcKey(p.family, p.n, parts, mix(seed, int64(10_000+2*i)), mix(seed, int64(10_001+2*i)))
		if err != nil {
			return nil, err
		}
		keys = append(keys, k)
	}
	return keys, nil
}

// svcRig is a shortcutsvc.Service behind an HTTP server on loopback, with
// one keep-alive client per closed-loop client.
type svcRig struct {
	svc     *shortcutsvc.Service
	srv     *http.Server
	served  chan error
	url     string
	clients [numClients]*http.Client
}

func bootSvc(cfg shortcutsvc.Config) (*svcRig, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &svcRig{
		svc:    shortcutsvc.New(cfg),
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
	}
	r.srv = &http.Server{Handler: r.svc.Handler()}
	go func() { r.served <- r.srv.Serve(ln) }()
	for i := range r.clients {
		r.clients[i] = &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}}
		// Open the client's connection before anything is timed.
		resp, err := r.clients[i].Get(r.url + "/healthz")
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		if err != nil {
			r.close()
			return nil, fmt.Errorf("healthz: %w", err)
		}
	}
	return r, nil
}

// close stops the server and waits until it has stopped serving.
func (r *svcRig) close() {
	for _, c := range r.clients {
		if c != nil {
			c.CloseIdleConnections()
		}
	}
	// Shutdown fails only when its context ends, and Background never does.
	_ = r.srv.Shutdown(context.Background())
	<-r.served
}

// reply is what a client saw of one query.
type reply struct {
	status int
	cache  string
	lat    time.Duration
}

// post sends body to /shortcut on client c's connection and reads the whole
// reply into buf. lat runs from the send until the body is fully read.
func (r *svcRig) post(c int, body []byte, buf *bytes.Buffer) (reply, error) {
	start := time.Now()
	resp, err := r.clients[c].Post(r.url+"/shortcut", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return reply{resp.StatusCode, resp.Header.Get("X-Cache"), time.Since(start)}, err
}

// expect checks a reply's status and X-Cache outcome.
func expect(rp reply, err error, outcome shortcutsvc.Outcome) error {
	switch {
	case err != nil:
		return err
	case rp.status != http.StatusOK:
		return fmt.Errorf("status %d", rp.status)
	case rp.cache != string(outcome):
		return fmt.Errorf("X-Cache %q, want %q", rp.cache, outcome)
	}
	return nil
}

// closedLoop runs the clients for d. Each calls send until the time is up
// or send reports that it has nothing left to send.
func closedLoop(d time.Duration, send func(c int, buf *bytes.Buffer) bool) time.Duration {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < numClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Now().Before(deadline) && send(c, &buf) {
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// sample is one timed query.
type sample struct {
	ms  float64
	err error
}

// loopResult gathers the samples of the clients' timed queries.
type loopResult struct {
	perClient [numClients][]sample
	elapsed   time.Duration
}

func (lr *loopResult) samples() []sample {
	var all []sample
	for _, s := range lr.perClient {
		all = append(all, s...)
	}
	return all
}

// opMs returns the samples' latencies in milliseconds.
func opMs(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.ms
	}
	return out
}

// segments alternates untraced and traced closed-loop stretches of one
// second for d, so that drift over the run falls on both sides of the
// tracing overhead, and returns the samples of each side.
func segments(d time.Duration, tr *tracer, mem *memAcc, loop func(time.Duration, *tracer) *loopResult) (plain, traced []sample) {
	start := time.Now()
	for i := 0; time.Since(start) < d || len(traced) == 0; i++ {
		if i%2 == 0 {
			plain = append(plain, loop(time.Second, nil).samples()...)
			continue
		}
		mem.start()
		ss := loop(time.Second, tr).samples()
		mem.stop(len(ss))
		traced = append(traced, ss...)
	}
	return plain, traced
}

// setSvcStats records the service's own counters over its lifetime.
func setSvcStats(rep *report, st shortcutsvc.Stats) {
	if done := st.Hits + st.Misses + st.Coalesced; done > 0 {
		rep.set("shortcutsvc.hit_ratio", float64(st.Hits)/float64(done), int(done))
	}
	rep.set("shortcutsvc.coalesced", float64(st.Coalesced), 1)
	rep.set("shortcutsvc.evictions", float64(st.Evictions), 1)
	if st.Misses > 0 {
		rep.set("shortcutsvc.construct_ms_per_miss", st.ConstructMs/float64(st.Misses), int(st.Misses))
	}
}

// checkDirect re-derives a reply from the key's inputs with a direct
// core.FindShortcutAuto run, the call the service makes on a miss.
func checkDirect(k *svcKey, body []byte) error {
	var got shortcutsvc.Response
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("%s: reply: %w", k, err)
	}
	g := scenario.MustGet(k.family).Build(k.n, k.seed)
	p := partition.Voronoi(g, k.parts, k.pseed)
	ar, err := core.FindShortcutAuto(tree.BFSTree(g, 0), p, k.seed, false, 1)
	if err != nil {
		return fmt.Errorf("%s: direct run: %w", k, err)
	}
	q := ar.S.Measure()
	type outcome struct {
		gfp, pfp                 string
		c, b, iter, probes       int
		cong, scCong, block, dil int
	}
	want := outcome{fmt.Sprintf("%016x", g.Fingerprint()), fmt.Sprintf("%016x", p.Fingerprint()),
		ar.EstC, ar.EstB, ar.Iterations, ar.Probes, q.Congestion, ar.S.ShortcutCongestion(), q.BlockParameter, q.Dilation}
	have := outcome{got.Graph.Fingerprint, got.Partition.Fingerprint,
		got.Params.C, got.Params.B, got.Iterations, got.Probes, got.Quality.Congestion,
		got.Quality.ShortcutCongestion, got.Quality.BlockParameter, got.Quality.Dilation}
	if have != want {
		return fmt.Errorf("%s: reply %+v, direct run %+v", k, have, want)
	}
	return nil
}

// ---- svc-hot ----

// hotRig is svc-hot's set-up: keys, streams and a warmed service.
type hotRig struct {
	*svcRig
	keys    []svcKey
	streams [numClients][]hotReq
	// hitBody is each key's cache-hit reply, identical for both forms.
	hitBody [][]byte
	// warmErr is each key's warm-up check outcome.
	warmErr []error
}

// warm sends every key in both forms: the reference form twice (a miss,
// then a hit) and the upload form once (a hit on the same entry). The two
// clients split the keys.
func (h *hotRig) warm() {
	h.hitBody = make([][]byte, len(h.keys))
	h.warmErr = make([]error, len(h.keys))
	var wg sync.WaitGroup
	for c := 0; c < numClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for i := c; i < len(h.keys); i += numClients {
				h.hitBody[i], h.warmErr[i] = h.warmKey(c, &h.keys[i], &buf)
			}
		}()
	}
	wg.Wait()
}

func (h *hotRig) warmKey(c int, k *svcKey, buf *bytes.Buffer) ([]byte, error) {
	rp, err := h.post(c, k.refBody, buf)
	if err := expect(rp, err, shortcutsvc.OutcomeMiss); err != nil {
		return nil, fmt.Errorf("%s warm-up: %w", k, err)
	}
	rp, err = h.post(c, k.refBody, buf)
	if err := expect(rp, err, shortcutsvc.OutcomeHit); err != nil {
		return nil, fmt.Errorf("%s warm-up: %w", k, err)
	}
	hit := bytes.Clone(buf.Bytes())
	rp, err = h.post(c, k.uploadBody, buf)
	if err := expect(rp, err, shortcutsvc.OutcomeHit); err != nil {
		return nil, fmt.Errorf("%s upload warm-up: %w", k, err)
	}
	var ref, up shortcutsvc.Response
	if err := json.Unmarshal(hit, &ref); err != nil {
		return nil, err
	}
	if err := json.Unmarshal(buf.Bytes(), &up); err != nil {
		return nil, err
	}
	if ref.Graph.Fingerprint != up.Graph.Fingerprint || ref.Partition.Fingerprint != up.Partition.Fingerprint {
		return nil, fmt.Errorf("%s: reference form fingerprints %s/%s, upload form %s/%s", k,
			ref.Graph.Fingerprint, ref.Partition.Fingerprint, up.Graph.Fingerprint, up.Partition.Fingerprint)
	}
	return hit, nil
}

func buildHot(seed int64) (*hotRig, error) {
	keys, err := hotKeys(seed)
	if err != nil {
		return nil, err
	}
	rig, err := bootSvc(shortcutsvc.Config{})
	if err != nil {
		return nil, err
	}
	h := &hotRig{svcRig: rig, keys: keys}
	for c := range h.streams {
		h.streams[c] = hotStream(seed, c, len(keys), hotStreamLen)
	}
	h.warm()
	return h, nil
}

// loop runs svc-hot's closed loop for d. pos carries each client's place in
// its stream across calls.
func (h *hotRig) loop(d time.Duration, tr *tracer, pos *[numClients]int) *loopResult {
	lr := &loopResult{}
	lr.elapsed = closedLoop(d, func(c int, buf *bytes.Buffer) bool {
		q := h.streams[c][pos[c]%hotStreamLen]
		pos[c]++
		k := &h.keys[q.key]
		body, name := k.refBody, "client.ref"
		if q.upload {
			body, name = k.uploadBody, "client.upload"
		}
		id := tr.begin(name, -1)
		rp, err := h.post(c, body, buf)
		tr.end(id)
		err = expect(rp, err, shortcutsvc.OutcomeHit)
		if err == nil && !bytes.Equal(buf.Bytes(), h.hitBody[q.key]) {
			err = fmt.Errorf("%s: hit reply differs from the warm-up reply", k)
		}
		lr.perClient[c] = append(lr.perClient[c], sample{ms(rp.lat), err})
		return true
	})
	return lr
}

func runSvcHot(cfg config, rep *report) error {
	h, err := measureSetup(rep, func() (*hotRig, error) { return buildHot(cfg.seed) }, func(h *hotRig) { h.close() })
	if err != nil {
		return err
	}
	defer h.close()
	for i, err := range h.warmErr {
		rep.check(err)
		// Every seventh key, from a seeded offset, is re-derived directly.
		if err == nil && int64(i)%7 == mix(cfg.seed, 4000)%7 {
			rep.check(checkDirect(&h.keys[i], h.hitBody[i]))
		}
	}
	var pos [numClients]int
	if !cfg.trace {
		lr := h.loop(cfg.seconds, nil, &pos)
		ss := lr.samples()
		for _, s := range ss {
			rep.check(s.err)
		}
		setOps(rep, opMs(ss), lr.elapsed)
		setLiveHeap(rep)
		return nil
	}

	tr := newTracer()
	var mem memAcc
	plain, traced := segments(cfg.seconds*2/3, tr, &mem, func(d time.Duration, tr *tracer) *loopResult {
		return h.loop(d, tr, &pos)
	})
	for _, s := range append(plain, traced...) {
		rep.check(s.err)
	}
	mem.report(rep)
	rep.set("trace.overhead_op_p50_ms", median(opMs(traced))-median(opMs(plain)), len(traced))
	h.direct(cfg.seconds/3, tr, rep)

	queryRef := tr.setMedian(rep, "shortcutsvc.hit_ref_us", "shortcutsvc.query.ref", 1e3)
	queryUpload := tr.setMedian(rep, "shortcutsvc.hit_upload_us", "shortcutsvc.query.upload", 1e3)
	handlerRef := tr.durations("shortcutsvc.handler.ref")
	handlerUpload := tr.durations("shortcutsvc.handler.upload")
	clientRef := tr.durations("client.ref")
	rep.set("shortcutsvc.codec_us", median(handlerRef)/1e3-queryRef, len(handlerRef))
	rep.set("shortcutsvc.codec_upload_us", median(handlerUpload)/1e3-queryUpload, len(handlerUpload))
	rep.set("http.transport_us", (median(clientRef)-median(handlerRef))/1e3, len(clientRef))
	tr.setMedian(rep, "graph.builder_ms", "graph.builder", 1e6)
	tr.setMedian(rep, "graph.fingerprint_us", "graph.fingerprint", 1e3)
	tr.setMedian(rep, "partition.voronoi_ms", "partition.voronoi", 1e6)
	setSvcStats(rep, h.svc.Stats())
	return tr.write(cfg)
}

// direct replays client 0's stream for d against the layers themselves:
// Service.Query on the pre-decoded request, the HTTP handler on an
// in-memory recorder, and, for uploads, the graph build and fingerprints the
// service's slow path runs.
func (h *hotRig) direct(d time.Duration, tr *tracer, rep *report) {
	handler := h.svc.Handler()
	deadline := time.Now().Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		q := h.streams[0][i%hotStreamLen]
		k := &h.keys[q.key]
		req, body, form := &k.ref, k.refBody, "ref"
		if q.upload {
			req, body, form = &k.upload, k.uploadBody, "upload"
		}
		var ent interface{ Result() shortcutsvc.Result }
		var outcome shortcutsvc.Outcome
		var err error
		tr.do("shortcutsvc.query."+form, -1, func() { ent, outcome, err = h.svc.Query(req) })
		if err == nil && outcome != shortcutsvc.OutcomeHit {
			err = fmt.Errorf("%s: direct query outcome %q", k, outcome)
		}
		rep.check(err)

		hreq := httptest.NewRequest(http.MethodPost, "/shortcut", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		tr.do("shortcutsvc.handler."+form, -1, func() { handler.ServeHTTP(rec, hreq) })
		var herr error
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), h.hitBody[q.key]) {
			herr = fmt.Errorf("%s: handler replied %d with a body unlike the warm-up reply", k, rec.Code)
		}
		rep.check(herr)
		if q.upload && err == nil {
			rep.check(directUpload(k, ent.Result(), tr))
		}
	}
}

// directUpload times the upload path's graph build, partition and
// fingerprints, and checks the fingerprints against the cached entry's.
func directUpload(k *svcKey, cached shortcutsvc.Result, tr *tracer) error {
	var g *graph.Graph
	var err error
	tr.do("graph.builder", -1, func() {
		var b *graph.Builder
		if b, err = graph.NewBuilder(k.upload.Nodes); err != nil {
			return
		}
		for _, e := range k.upload.Edges {
			if _, err = b.AddEdge(e[0], e[1], 1); err != nil {
				return
			}
		}
		g = b.Finalize()
	})
	if err != nil {
		return fmt.Errorf("%s: builder: %w", k, err)
	}
	var p *partition.Partition
	tr.do("partition.voronoi", -1, func() { p = partition.Voronoi(g, k.parts, k.pseed) })
	var gfp, pfp uint64
	tr.do("graph.fingerprint", -1, func() { gfp, pfp = g.Fingerprint(), p.Fingerprint() })
	if gfp != cached.GraphFingerprint || pfp != cached.PartitionFingerprint {
		return fmt.Errorf("%s: uploaded graph fingerprints differ from the cached entry's", k)
	}
	return nil
}

// ---- svc-cold ----

// coldRig is svc-cold's set-up: the key list and a fresh service.
type coldRig struct {
	*svcRig
	seed int64
	keys []svcKey
	next atomic.Int64 // index of the next unsent key
	// kept holds the replies of the sampled keys, by key index.
	mu   sync.Mutex
	kept map[int][]byte
}

func buildCold(seed int64) (*coldRig, error) {
	keys, err := coldKeys(seed, coldKeyCount)
	if err != nil {
		return nil, err
	}
	rig, err := bootSvc(shortcutsvc.Config{CacheEntries: coldCacheEntries})
	if err != nil {
		return nil, err
	}
	return &coldRig{svcRig: rig, seed: seed, keys: keys, kept: map[int][]byte{}}, nil
}

// take returns the index of the next unsent key, or false when none is left.
func (cr *coldRig) take() (int, bool) {
	j := int(cr.next.Add(1) - 1)
	return j, j < len(cr.keys)
}

// loop runs svc-cold's closed loop for d. The replies to the first
// checkSample keys whose seeded hash selects them are kept for checkDirect.
func (cr *coldRig) loop(d time.Duration, tr *tracer) *loopResult {
	lr := &loopResult{}
	lr.elapsed = closedLoop(d, func(c int, buf *bytes.Buffer) bool {
		j, ok := cr.take()
		if !ok {
			return false
		}
		id := tr.begin("client.miss", -1)
		rp, err := cr.post(c, cr.keys[j].refBody, buf)
		tr.end(id)
		err = expect(rp, err, shortcutsvc.OutcomeMiss)
		if err == nil && mix(cr.seed, int64(5000+j))%16 == 0 {
			cr.mu.Lock()
			if len(cr.kept) < checkSample {
				cr.kept[j] = bytes.Clone(buf.Bytes())
			}
			cr.mu.Unlock()
		}
		lr.perClient[c] = append(lr.perClient[c], sample{ms(rp.lat), err})
		return true
	})
	return lr
}

func runSvcCold(cfg config, rep *report) error {
	cr, err := measureSetup(rep, func() (*coldRig, error) { return buildCold(cfg.seed) }, func(cr *coldRig) { cr.close() })
	if err != nil {
		return err
	}
	defer cr.close()
	if !cfg.trace {
		lr := cr.loop(cfg.seconds, nil)
		ss := lr.samples()
		for _, s := range ss {
			rep.check(s.err)
		}
		cr.checkKept(rep)
		setOps(rep, opMs(ss), lr.elapsed)
		setLiveHeap(rep)
		return nil
	}

	tr := newTracer()
	var mem memAcc
	plain, traced := segments(cfg.seconds*2/3, tr, &mem, func(d time.Duration, tr *tracer) *loopResult {
		return cr.loop(d, tr)
	})
	for _, s := range append(plain, traced...) {
		rep.check(s.err)
	}
	cr.checkKept(rep)
	mem.report(rep)
	rep.set("trace.overhead_op_p50_ms", median(opMs(traced))-median(opMs(plain)), len(traced))
	cr.direct(cfg.seconds/3, tr, rep)
	setSvcStats(rep, cr.svc.Stats())
	return tr.write(cfg)
}

func (cr *coldRig) checkKept(rep *report) {
	for j, body := range cr.kept {
		rep.check(checkDirect(&cr.keys[j], body))
	}
}

// direct runs the next unsent keys for d through the calls the service
// makes on a miss — scenario build, Voronoi, BFS tree, FindShortcutAuto —
// then seals an unsealed copy of the result on its own, and finally sends
// the pre-decoded request to Service.Query, which misses.
func (cr *coldRig) direct(d time.Duration, tr *tracer, rep *report) {
	var construct, probes, iterations []float64
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		j, ok := cr.take()
		if !ok {
			break
		}
		k := &cr.keys[j]
		var g *graph.Graph
		var p *partition.Partition
		var t *tree.Tree
		var ar *core.AutoResult
		var err error
		root := tr.begin("direct.miss", -1)
		tr.do("scenario.build", root, func() { g = scenario.MustGet(k.family).Build(k.n, k.seed) })
		tr.do("partition.voronoi", root, func() { p = partition.Voronoi(g, k.parts, k.pseed) })
		tr.do("tree.bfs", root, func() { t = tree.BFSTree(g, 0) })
		find := tr.do("core.find", root, func() { ar, err = core.FindShortcutAuto(t, p, k.seed, false, 1) })
		if err != nil {
			tr.end(root)
			rep.check(fmt.Errorf("%s: direct run: %w", k, err))
			continue
		}
		cp := unsealedCopy(ar.S)
		seal := tr.do("core.seal", root, func() { cp.Seal(1) })
		var ent interface{ Result() shortcutsvc.Result }
		var outcome shortcutsvc.Outcome
		tr.do("shortcutsvc.miss", root, func() { ent, outcome, err = cr.svc.Query(&k.ref) })
		tr.end(root)
		construct = append(construct, ms(find-seal))
		probes = append(probes, float64(ar.Probes))
		iterations = append(iterations, float64(ar.Iterations))

		q := ar.S.Measure()
		switch {
		case cp.Measure() != q:
			err = fmt.Errorf("%s: the resealed copy measures %+v, the original %+v", k, cp.Measure(), q)
		case err != nil:
		case outcome != shortcutsvc.OutcomeMiss:
			err = fmt.Errorf("%s: direct query outcome %q", k, outcome)
		case ent.Result().Quality != q:
			err = fmt.Errorf("%s: service quality %+v, direct run %+v", k, ent.Result().Quality, q)
		}
		rep.check(err)
	}
	tr.setMedian(rep, "scenario.build_ms", "scenario.build", 1e6)
	tr.setMedian(rep, "partition.voronoi_ms", "partition.voronoi", 1e6)
	tr.setMedian(rep, "tree.bfs_ms", "tree.bfs", 1e6)
	tr.setMedian(rep, "core.find_ms", "core.find", 1e6)
	tr.setMedian(rep, "core.seal_ms", "core.seal", 1e6)
	tr.setMedian(rep, "shortcutsvc.miss_ms", "shortcutsvc.miss", 1e6)
	if n := len(construct); n > 0 {
		rep.set("core.construct_ms", median(construct), n)
		rep.set("core.probes", mean(probes), n)
		rep.set("core.iterations", mean(iterations), n)
	}
}

// unsealedCopy rebuilds s as a fresh unsealed shortcut through the exported
// NewShortcut/PartsOn/SetParts API, so that Seal can be timed on its own.
func unsealedCopy(s *core.Shortcut) *core.Shortcut {
	t := s.Tree()
	cp := core.NewShortcut(t, s.Partition())
	for e := 0; e < t.Graph().NumEdges(); e++ {
		if parts := s.PartsOn(e); len(parts) > 0 {
			cp.SetParts(e, parts)
		}
	}
	return cp
}
