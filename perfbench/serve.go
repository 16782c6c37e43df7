package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gen"
	"repro/internal/gio"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/serve"
)

// clients is the closed-loop client count (the host's two CPUs).
const clients = 2

// movementSpecs is how many leading sim jobs of the cold stream
// sim.movement_bytes_total sums over, on the version-0 graphs.
const movementSpecs = 24

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// serveBench is the state shared by the passes of one serve run.
type serveBench struct {
	hot     bool
	seconds float64
	st      stream
	// graphs[g][v] is version v of served graph g, digests[g][v] its
	// content digest, and byDigest maps each digest back to the graph.
	graphs   [][]*graph.Graph
	digests  [][]string
	byDigest map[string]*graph.Graph
	// plans caches partition plans for the offline replay.
	planMu sync.Mutex
	plans  map[string]*partition.Assignment
}

// loopback is one in-process ndpserve on a loopback port.
type loopback struct {
	mgr  *serve.Manager
	hs   *http.Server
	done chan error
	base string
}

func startLoopback(graphs [][]*graph.Graph, tr *tracer) (*loopback, []float64, error) {
	reg := serve.NewRegistry()
	var puts []float64
	for gi, name := range serveGraphs {
		t := time.Now()
		if _, err := reg.Put(name, graphs[gi][0]); err != nil {
			return nil, nil, fmt.Errorf("registry put %s: %w", name, err)
		}
		puts = append(puts, msOf(time.Since(t)))
	}
	mgr := serve.NewManager(reg, &metrics.Registry{}, serve.ManagerConfig{})
	var h http.Handler = serve.NewServer(mgr)
	if tr != nil {
		h = &tracingHandler{next: h, tr: tr}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		mgr.Stop()
		return nil, nil, err
	}
	lb := &loopback{mgr: mgr, hs: &http.Server{Handler: h}, done: make(chan error, 1), base: "http://" + ln.Addr().String()}
	go func() { lb.done <- lb.hs.Serve(ln) }()
	return lb, puts, nil
}

func (lb *loopback) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = lb.hs.Shutdown(ctx) // a forced close still ends Serve
	<-lb.done
	lb.mgr.Stop()
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

// runServe runs a serve workload: set-up (repeated), the untraced pass
// with its output gate, and with tracing a second, traced pass.
func runServe(ctx context.Context, rep *report, hot bool, seconds float64) error {
	sb := &serveBench{hot: hot, seconds: seconds}
	if hot {
		sb.st = hotStream(rep.seed)
	} else {
		sb.st = coldStream(rep.seed)
	}
	versions := 1
	if !hot {
		versions = graphVersions
	}
	rep.info["clients"] = clients
	rep.info["executors"] = 2 // serve.ManagerConfig's default
	rep.info["datasets"] = fmt.Sprintf("%v at scale %g, weighted, gen seed 1; uploads: %s gen seeds 1..%d",
		serveGraphs, serveScale, serveGraphs[uploadGraph], versions)

	var setups, gens, puts []float64
	var lb *loopback
	for i := 0; i < setupRepeats; i++ {
		if lb != nil {
			lb.stop()
			lb = nil
		}
		sb.graphs = nil
		runtime.GC()
		t0 := time.Now()
		gs, err := generateServed(versions)
		if err != nil {
			return err
		}
		gens = append(gens, time.Since(t0).Seconds())
		sb.graphs = gs
		l, p, err := startLoopback(gs, nil)
		if err != nil {
			return err
		}
		lb, puts = l, append(puts, p...)
		if hot {
			if err := warmUp(ctx, lb.base, sb.st.specs); err != nil {
				lb.stop()
				return err
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() {
		if lb != nil {
			lb.stop()
		}
	}()
	sb.byDigest = make(map[string]*graph.Graph)
	sb.digests = make([][]string, len(sb.graphs))
	for gi, vs := range sb.graphs {
		for _, g := range vs {
			d, err := serve.GraphDigest(g)
			if err != nil {
				return err
			}
			sb.digests[gi] = append(sb.digests[gi], d)
			sb.byDigest[d] = g
		}
	}

	plain, err := sb.pass(ctx, lb.base, nil)
	if err != nil {
		return err
	}
	heap := measureHeapMB()
	rep.attempted += plain.attempted()
	sb.gate(ctx, rep, lb.base, plain)
	lb.stop()
	lb = nil
	rep.info["jobs_untraced"] = len(plain.jobs)
	rep.info["latency_samples"] = len(plain.jobs)
	rep.info["latency_tail_percentile_supported"] = supportedTail(len(plain.jobs))

	if !rep.trace {
		rep.set("setup_s", median(setups), "s")
		rep.set("jobs_per_s", plain.jobsPerSecond(), "1/s")
		lat := plain.latenciesMS()
		rep.set("latency_p50_ms", median(lat), "ms")
		rep.set("latency_p95_ms", percentile(lat, 95), "ms")
		rep.set("live_heap_mb", heap, "MB")
		return nil
	}

	// Traced pass: a fresh server behind the tracing middleware, client
	// requests through a tracing transport.
	tr := newTracer()
	tlb, _, err := startLoopback(sb.graphs, tr)
	if err != nil {
		return err
	}
	lb = tlb
	if hot {
		if err := warmUp(ctx, lb.base, sb.st.specs); err != nil {
			return err
		}
	}
	orig := http.DefaultTransport
	http.DefaultTransport = &tracingTransport{next: orig, tr: tr}
	traced, err := sb.pass(ctx, lb.base, tr)
	http.DefaultTransport = orig
	if err != nil {
		return err
	}
	rep.attempted += traced.attempted()
	replay := sb.gate(ctx, rep, lb.base, traced)
	spans := tr.finish()
	rep.info["jobs_traced"] = len(traced.jobs)
	rep.info["spans"] = len(spans)

	sb.layerMetrics(ctx, rep, traced, replay, spans)
	if !hot {
		rep.set("serve.upload_p50_ms", median(plain.uploadMS()), "ms")
		rep.info["upload_samples"] = len(plain.uploads)
	}
	rep.set("gen.generate_s", median(gens), "s")
	rep.set("serve.registry_put_p50_ms", median(append(puts, replay.putMS...)), "ms")
	rep.set("trace.overhead_frac", 1-ratio(traced.jobsPerSecond(), plain.jobsPerSecond()), "ratio")
	return writeTrace(rep.artifact("trace"), rep.info, spans)
}

// generateServed builds the served stand-ins at gen seed 1, and for the
// upload graph the given number of versions: version v uses gen seed
// v+1.
func generateServed(versions int) ([][]*graph.Graph, error) {
	out := make([][]*graph.Graph, len(serveGraphs))
	for gi, name := range serveGraphs {
		d, err := gen.ByName(name)
		if err != nil {
			return nil, err
		}
		for v := 0; v < versions && (v == 0 || gi == uploadGraph); v++ {
			g, err := d.Generate(serveScale, gen.Config{Seed: uint64(v + 1), Weighted: true, DropSelfLoops: true})
			if err != nil {
				return nil, fmt.Errorf("generate %s: %w", name, err)
			}
			out[gi] = append(out[gi], g)
		}
	}
	return out, nil
}

// warmUp runs every spec once so that the result cache holds them all.
func warmUp(ctx context.Context, base string, specs []serve.JobSpec) error {
	c := serve.NewClient(base, "")
	for _, s := range specs {
		info, err := c.Submit(ctx, s)
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		if info, err = c.Wait(ctx, info.ID); err != nil || info.State != serve.StateDone {
			return fmt.Errorf("warm-up %s: state %s: %v %s", info.ID, info.State, err, info.Error)
		}
	}
	return nil
}

// jobRec is one served job as the client saw it.
type jobRec struct {
	op        int
	spec      int
	id        string
	digest    string
	hit       bool
	lat       time.Duration // submit to result bytes received
	untilDone time.Duration // submit to Client.Wait returning
	n         int           // result length
	crc       uint32        // CRC-32C of the result bytes
}

type uploadRec struct {
	op     int
	lat    time.Duration
	digest string
}

type passResult struct {
	jobs     []jobRec
	uploads  []uploadRec
	errors   int64
	wall     time.Duration
	before   map[string]int64 // /v1/metricz at the start and end
	after    map[string]int64
	problems []string
}

func (p *passResult) attempted() int64 {
	return int64(len(p.jobs)+len(p.uploads)) + p.errors
}

func (p *passResult) jobsPerSecond() float64 {
	return ratio(float64(len(p.jobs)), p.wall.Seconds())
}

func (p *passResult) latenciesMS() []float64 {
	out := make([]float64, len(p.jobs))
	for i, j := range p.jobs {
		out[i] = msOf(j.lat)
	}
	return out
}

func (p *passResult) uploadMS() []float64 {
	out := make([]float64, len(p.uploads))
	for i, u := range p.uploads {
		out[i] = msOf(u.lat)
	}
	return out
}

func (p *passResult) counterDelta(name string) float64 {
	return float64(p.after[name] - p.before[name])
}

// coldBlockSeconds is the time one cold block takes on the reference
// host (2 CPUs, about 27 jobs/s); a cold pass runs as many whole blocks
// as fill the run's seconds at that pace.
const coldBlockSeconds = 2.7

// coldPassOps is the number of ops a cold pass runs for a run of the
// given seconds.
func coldPassOps(seconds float64) int {
	return max(1, int(math.Ceil(seconds/coldBlockSeconds))) * coldBlockOps
}

// pass drives the server closed-loop with `clients` clients: each client
// takes the next op of the stream, waits for its outcome, and only then
// takes another. A hot pass runs for the run's seconds, wrapping around
// the stream; a cold pass runs a fixed number of whole blocks, so every
// run serves the same multiset of jobs.
func (sb *serveBench) pass(ctx context.Context, base string, tr *tracer) (*passResult, error) {
	limit := len(sb.st.ops)
	if !sb.hot {
		limit = coldPassOps(sb.seconds)
		if limit > len(sb.st.ops) {
			return nil, fmt.Errorf("a %gs cold pass needs %d ops; the stream holds %d", sb.seconds, limit, len(sb.st.ops))
		}
	}
	probe := serve.NewClient(base, "")
	before, err := probe.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	res := &passResult{before: before}
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(time.Duration(sb.seconds * float64(time.Second)))
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := serve.NewClient(base, "")
			for ctx.Err() == nil && (!sb.hot || time.Now().Before(deadline)) {
				i := int(next.Add(1) - 1)
				if !sb.hot && i >= limit {
					return
				}
				i %= len(sb.st.ops)
				o := sb.st.ops[i]
				if o.upload {
					u, err := sb.upload(ctx, cl, i, o, tr)
					mu.Lock()
					if err != nil {
						res.errors++
						res.problems = append(res.problems, err.Error())
					} else {
						res.uploads = append(res.uploads, u)
					}
					mu.Unlock()
					continue
				}
				j, err := sb.job(ctx, cl, i, o.spec, tr)
				mu.Lock()
				if err != nil {
					res.errors++
					res.problems = append(res.problems, err.Error())
				} else {
					res.jobs = append(res.jobs, j)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	after, err := probe.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	res.after = after
	sort.Slice(res.jobs, func(a, b int) bool { return res.jobs[a].op < res.jobs[b].op })
	sort.Slice(res.uploads, func(a, b int) bool { return res.uploads[a].op < res.uploads[b].op })
	return res, nil
}

// job submits one spec, waits for it with Client.Wait, and fetches its
// result bytes.
func (sb *serveBench) job(ctx context.Context, c *serve.Client, opIdx, specIdx int, tr *tracer) (jobRec, error) {
	spec := sb.st.specs[specIdx]
	root := tr.begin("job", -1, "")
	defer tr.end(root)
	if tr != nil {
		n := spec
		sp := tr.begin("serve.normalize", root, "")
		_ = n.Normalize() // timed only; the server normalizes its own copy
		tr.end(sp)
	}
	t0 := time.Now()
	sp := tr.begin("client.submit", root, "")
	info, err := c.Submit(ctx, spec)
	tr.end(sp)
	if err != nil {
		return jobRec{}, fmt.Errorf("op %d: submit: %w", opIdx, err)
	}
	id := info.ID
	tr.setJob(root, id)
	tr.setJob(sp, id)
	rec := jobRec{op: opIdx, spec: specIdx, id: id, digest: info.Digest}

	sp = tr.begin("client.wait", root, id)
	info, err = c.Wait(ctx, id)
	tr.end(sp)
	rec.untilDone = time.Since(t0)
	if err != nil {
		return jobRec{}, fmt.Errorf("op %d: wait %s: %w", opIdx, id, err)
	}
	if info.State != serve.StateDone {
		return jobRec{}, fmt.Errorf("op %d: job %s ended %s: %s", opIdx, id, info.State, info.Error)
	}
	sp = tr.begin("client.result", root, id)
	b, err := c.ResultBytes(ctx, id)
	tr.end(sp)
	rec.lat = time.Since(t0)
	if err != nil {
		return jobRec{}, fmt.Errorf("op %d: result %s: %w", opIdx, id, err)
	}
	rec.hit = info.CacheHit
	rec.n = len(b)
	rec.crc = crc32.Checksum(b, castagnoli)
	return rec, nil
}

func (sb *serveBench) upload(ctx context.Context, c *serve.Client, opIdx int, o op, tr *tracer) (uploadRec, error) {
	name := serveGraphs[uploadGraph]
	sp := tr.begin("client.upload", -1, fmt.Sprintf("upload-%d", opIdx))
	t0 := time.Now()
	info, err := c.PutSnapshotGraph(ctx, name, sb.graphs[uploadGraph][o.version])
	lat := time.Since(t0)
	tr.end(sp)
	if err != nil {
		return uploadRec{}, fmt.Errorf("op %d: upload %s: %w", opIdx, name, err)
	}
	return uploadRec{op: opIdx, lat: lat, digest: info.Digest}, nil
}

// replayKey identifies one distinct served run: a spec on a graph
// version.
type replayKey struct {
	spec   int
	digest string
}

// replayOut is the offline twin of one served run.
type replayOut struct {
	key      replayKey
	engine   string
	bytes    []byte
	movement int64
	planMS   float64 // 0 when the plan came from the replay's cache
	execMS   float64
	encodeMS float64
}

type replayResult struct {
	keys  []replayKey // in order of first service
	outs  map[replayKey]*replayOut
	putMS []float64 // offline Registry.Put of each upload body
	gioEncodeMS,
	gioDecodeMS []float64
}

// gate is the output check: every distinct served run is executed
// offline (serve.ExecuteSpec + serve.MarshalResult, two at a time like
// the server's executors), and every job's result must equal those
// bytes. Cold jobs are fetched again for a byte-for-byte comparison; a
// hot spec's bytes are fetched once per spec (they are one cached
// value) and every job's CRC must match. Every upload must report the
// digest of the version sent. The timings double as the per-layer
// replay numbers.
func (sb *serveBench) gate(ctx context.Context, rep *report, base string, p *passResult) *replayResult {
	for _, msg := range p.problems {
		rep.fail("%s", msg)
	}
	byKey := make(map[replayKey][]int)
	var keys []replayKey
	for i, j := range p.jobs {
		k := replayKey{j.spec, j.digest}
		if _, ok := byKey[k]; !ok {
			keys = append(keys, k)
		}
		byKey[k] = append(byKey[k], i)
	}
	rr := &replayResult{keys: keys, outs: make(map[replayKey]*replayOut)}
	sb.plans = make(map[string]*partition.Assignment)
	var mu sync.Mutex
	work := make(chan replayKey)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := serve.NewClient(base, "")
			for k := range work {
				out, err := sb.replay(ctx, k)
				if err != nil {
					mu.Lock()
					rep.fail("replay spec %d on %.12s: %v", k.spec, k.digest, err)
					mu.Unlock()
					continue
				}
				jobs := byKey[k]
				bad := 0
				want := crc32.Checksum(out.bytes, castagnoli)
				for _, ji := range jobs {
					if j := p.jobs[ji]; j.n != len(out.bytes) || j.crc != want {
						bad++
					}
				}
				// Fetch again for a byte-for-byte comparison: every cold
				// job, and one job per hot spec.
				fetch := jobs
				if sb.hot {
					fetch = jobs[:1]
				}
				for _, ji := range fetch {
					b, err := c.ResultBytes(ctx, p.jobs[ji].id)
					if err != nil || !bytes.Equal(b, out.bytes) {
						bad++
					}
				}
				mu.Lock()
				rr.outs[k] = out
				for i := 0; i < bad; i++ {
					rep.fail("spec %d on %.12s: served bytes differ from the offline result", k.spec, k.digest)
				}
				mu.Unlock()
			}
		}()
	}
	for _, k := range keys {
		work <- k
	}
	close(work)
	wg.Wait()

	for _, u := range p.uploads {
		o := sb.st.ops[u.op]
		g := sb.graphs[uploadGraph][o.version]
		if sb.byDigest[u.digest] != g {
			rep.fail("upload op %d: server digest %.12s is not version %d of %s", u.op, u.digest, o.version, serveGraphs[uploadGraph])
		}
		// Offline replay of the upload body through the gio codec and a
		// scratch registry.
		var buf bytes.Buffer
		t := time.Now()
		if err := gio.WriteBinary(&buf, g); err != nil {
			rep.fail("upload op %d: encode: %v", u.op, err)
			continue
		}
		rr.gioEncodeMS = append(rr.gioEncodeMS, msOf(time.Since(t)))
		t = time.Now()
		g2, err := gio.ReadBinary(&buf)
		if err != nil {
			rep.fail("upload op %d: decode: %v", u.op, err)
			continue
		}
		rr.gioDecodeMS = append(rr.gioDecodeMS, msOf(time.Since(t)))
		t = time.Now()
		if _, err := serve.NewRegistry().Put(serveGraphs[uploadGraph], g2); err != nil {
			rep.fail("upload op %d: registry put: %v", u.op, err)
			continue
		}
		rr.putMS = append(rr.putMS, msOf(time.Since(t)))
	}
	return rr
}

// replay executes one served run offline, with its partition plan
// built ahead of the timed execution.
func (sb *serveBench) replay(ctx context.Context, k replayKey) (*replayOut, error) {
	g := sb.byDigest[k.digest]
	if g == nil {
		return nil, errors.New("the server reported a digest of no known graph version")
	}
	spec := sb.st.specs[k.spec]
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	out := &replayOut{key: k, engine: spec.Engine}
	var assign *partition.Assignment
	if spec.Engine != serve.EngineSerial {
		pk := fmt.Sprintf("%s/%s/%d/%d", k.digest, spec.Partitioner, spec.Seed, spec.Partitions)
		sb.planMu.Lock()
		assign = sb.plans[pk]
		sb.planMu.Unlock()
		if assign == nil {
			p, err := partition.ByName(spec.Partitioner, spec.Seed)
			if err != nil {
				return nil, err
			}
			t := time.Now()
			if assign, err = p.Partition(g, spec.Partitions); err != nil {
				return nil, err
			}
			out.planMS = msOf(time.Since(t))
			sb.planMu.Lock()
			sb.plans[pk] = assign
			sb.planMu.Unlock()
		}
	}
	t := time.Now()
	res, err := serve.ExecuteSpec(ctx, g, spec, assign)
	if err != nil {
		return nil, err
	}
	out.execMS = msOf(time.Since(t))
	t = time.Now()
	if out.bytes, err = serve.MarshalResult(res); err != nil {
		return nil, err
	}
	out.encodeMS = msOf(time.Since(t))
	out.movement = res.TotalDataMovementBytes
	return out, nil
}

// layerMetrics derives the serve-side per-layer metrics of a traced
// pass from its spans, its counters, and the offline replay.
func (sb *serveBench) layerMetrics(ctx context.Context, rep *report, p *passResult, rr *replayResult, spans []span) {
	rep.set("serve.submit_rtt_p50_ms", median(durationsMS(spans, "client.submit")), "ms")
	rep.set("serve.status_rtt_p50_ms", median(durationsMS(spans, "http.status")), "ms")
	rep.set("serve.result_rtt_p50_ms", median(durationsMS(spans, "client.result")), "ms")
	norm := durationsMS(spans, "serve.normalize")
	for i := range norm {
		norm[i] *= 1e3
	}
	rep.set("serve.normalize_p50_us", median(norm), "us")
	rep.set("serve.handler_submit_p50_ms", median(durationsMS(spans, "server.submit")), "ms")
	rep.set("serve.handler_result_p50_ms", median(durationsMS(spans, "server.result")), "ms")

	var resultBytes float64
	for _, j := range p.jobs {
		resultBytes += float64(j.n)
	}
	rep.set("serve.result_bytes_per_job", ratio(resultBytes, float64(len(p.jobs))), "B")
	rep.set("serve.polls_per_job", ratio(float64(len(durationsMS(spans, "server.status"))), float64(len(p.jobs))), "count")

	// Queue and poll wait: the client's time from submit to seeing the
	// job done, minus what the server had to do for it (its exec +
	// encode when it was not a cache hit).
	var qw []float64
	for _, j := range p.jobs {
		w := msOf(j.untilDone)
		if !j.hit {
			if o := rr.outs[replayKey{j.spec, j.digest}]; o != nil {
				w -= o.execMS + o.encodeMS
			}
		}
		qw = append(qw, w)
	}
	rep.set("serve.queue_poll_wait_p50_ms", median(qw), "ms")

	hits, misses := p.counterDelta(serve.CounterResultCacheHits), p.counterDelta(serve.CounterResultCacheMisses)
	rep.set("serve.result_cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	phits, pmisses := p.counterDelta(serve.CounterPlanCacheHits), p.counterDelta(serve.CounterPlanCacheMisses)
	rep.set("serve.plan_cache_hit_ratio", ratio(phits, phits+pmisses), "ratio")
	rep.set("partition.plans_built", pmisses, "count")

	var enc, plan []float64
	exec := map[string][]float64{}
	var total float64
	for _, k := range rr.keys {
		o := rr.outs[k]
		if o == nil {
			continue // failed replays are counted by the gate
		}
		enc = append(enc, o.encodeMS)
		if o.planMS > 0 {
			plan = append(plan, o.planMS)
		}
		exec[o.engine] = append(exec[o.engine], o.execMS)
		total += o.execMS
	}
	rep.set("serve.encode_p50_ms", median(enc), "ms")
	rep.set("partition.plan_p50_ms", median(plan), "ms")
	sim, cl, ser := exec[serve.EngineSim], exec[serve.EngineCluster], exec[serve.EngineSerial]
	rep.set("sim.exec_p50_ms", median(sim), "ms")
	rep.set("sim.exec_p95_ms", percentile(sim, 95), "ms")
	rep.set("sim.exec_share", ratio(sum(sim), total), "ratio")
	rep.set("cluster.exec_p50_ms", median(cl), "ms")
	rep.set("cluster.exec_share", ratio(sum(cl), total), "ratio")
	rep.set("kernels.exec_p50_ms", median(ser), "ms")
	rep.set("kernels.exec_share", ratio(sum(ser), total), "ratio")
	rep.info["replayed_runs"] = len(rr.outs)
	rep.info["replayed_sim_runs"] = len(sim)

	mv, err := sb.movementTotal(ctx, rr)
	if err != nil {
		rep.fail("movement total: %v", err)
	}
	rep.set("sim.movement_bytes_total", float64(mv), "B")

	if !sb.hot {
		rep.set("gio.encode_p50_ms", median(rr.gioEncodeMS), "ms")
		rep.set("gio.decode_p50_ms", median(rr.gioDecodeMS), "ms")
	}
}

// movementTotal sums the modelled data movement of the first
// movementSpecs sim specs of the stream on the version-0 graphs — an
// exact count for a given seed, independent of how far a run got and
// of when uploads landed.
func (sb *serveBench) movementTotal(ctx context.Context, rr *replayResult) (int64, error) {
	var total int64
	seen := map[int]bool{}
	n := 0
	for _, o := range sb.st.ops {
		if n == movementSpecs {
			break
		}
		if o.upload || seen[o.spec] {
			continue
		}
		seen[o.spec] = true
		s := sb.st.specs[o.spec]
		if s.Engine != serve.EngineSim {
			continue
		}
		n++
		k := replayKey{o.spec, sb.digests[slices.Index(serveGraphs, s.Snapshot)][0]}
		out := rr.outs[k]
		if out == nil {
			var err error
			if out, err = sb.replay(ctx, k); err != nil {
				return 0, err
			}
		}
		total += out.movement
	}
	return total, nil
}

// tracingTransport records a client-side span per HTTP request, ending
// when the response body is closed (so a result's span covers reading
// its bytes).
type tracingTransport struct {
	next http.RoundTripper
	tr   *tracer
}

func (t *tracingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	start := t.tr.now()
	name, job := routeOf(r)
	name = "http." + name[len("server."):]
	resp, err := t.next.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	resp.Body = &tracedBody{ReadCloser: resp.Body, tr: t.tr, s: span{Name: name, Start: start, Parent: -1, Job: job},
		capture: name == "http.submit"}
	return resp, nil
}

type tracedBody struct {
	io.ReadCloser
	tr      *tracer
	s       span
	capture bool
	buf     bytes.Buffer
	closed  bool
}

func (b *tracedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if b.capture {
		b.buf.Write(p[:n])
	}
	return n, err
}

func (b *tracedBody) Close() error {
	err := b.ReadCloser.Close()
	if !b.closed {
		b.closed = true
		b.s.End = b.tr.now()
		if b.capture {
			var info struct {
				ID string `json:"id"`
			}
			if json.Unmarshal(b.buf.Bytes(), &info) == nil {
				b.s.Job = info.ID
			}
		}
		b.tr.add(b.s)
	}
	return err
}
