package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cliconf"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/store"
)

// The ooc workload runs kernels straight from a gcsr2 container file,
// ndprun -store style: each run opens the container (mmap), runs one
// kernel through store.Run at a local-memory budget, and closes it.

const (
	oocDataset = "com-livejournal"
	oocScale   = 16
	oocPRIters = 10 // ndprun's -priters default

	// oocCycleSeconds is the reference pace of one cycle (every kernel
	// at every budget) on a 2-CPU Xeon VM. A pass runs as many whole
	// cycles as fill the run's seconds at that pace, so every run holds
	// the same multiset of jobs and its percentiles sit at the same ranks.
	oocCycleSeconds = 4.5
)

var oocKernels = []string{"bfs", "cc", "pagerank", "sssp"}

// oocBudget is a local-tier budget: resident (unlimited) or pressure
// (half the working set measured at set-up).
type oocBudget struct {
	name  string
	bytes int64
}

// oocRun is one kernel run from the container.
type oocRun struct {
	kernel, budget string
	dur            time.Duration // store.Run
	wall           time.Duration // the whole job: open, run, close
	edges          int64         // Σ ActiveEdges: the nominal frontier edge volume
	stats          store.Stats
	print          uint64
	res            *kernels.Result // kept for the first cycle only
	heapMB         float64
}

type oocBench struct {
	path    string
	seed    uint64
	cycles  int
	budgets []oocBudget
	starts  []graph.VertexID // first vertex of every segment
}

func runOOC(ctx context.Context, rep *report, seconds float64) error {
	dir := filepath.Join(rep.out, fmt.Sprintf("ooc-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ob := &oocBench{path: filepath.Join(dir, oocDataset+".gcsr2"), seed: rep.seed,
		cycles: max(1, int(math.Ceil(seconds/oocCycleSeconds)))}

	var setups, gens, writes, opens []float64
	var ws int64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		t0 := time.Now()
		d, err := gen.ByName(oocDataset)
		if err != nil {
			return err
		}
		g, err := d.Generate(oocScale, gen.Config{Seed: 1, Weighted: true, DropSelfLoops: true})
		if err != nil {
			return fmt.Errorf("generate: %w", err)
		}
		gens = append(gens, time.Since(t0).Seconds())
		rep.info["vertices"], rep.info["edges"] = g.NumVertices(), g.NumEdges()
		t := time.Now()
		if err := store.SaveGraphFile(ob.path, g, 0); err != nil {
			return fmt.Errorf("write container: %w", err)
		}
		writes = append(writes, time.Since(t).Seconds())
		t = time.Now()
		st, err := store.OpenFile(ob.path, store.Options{})
		if err != nil {
			return fmt.Errorf("open container: %w", err)
		}
		opens = append(opens, msOf(time.Since(t)))
		ws, ob.starts, err = workingSet(st)
		_ = st.Close() // read-only
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	ob.budgets = []oocBudget{{"resident", 0}, {"pressure", ws / 2}}
	rep.info["datasets"] = fmt.Sprintf("%s at scale %d, weighted, gen seed 1", oocDataset, oocScale)
	rep.info["segments"] = len(ob.starts)
	rep.info["working_set_bytes"] = ws
	rep.info["pressure_budget_bytes"] = ws / 2
	rep.info["kernels"] = oocKernels

	plain, elapsed, err := ob.pass(ctx, nil)
	if err != nil {
		return err
	}
	rep.attempted += int64(len(plain))
	ref, inmem, err := ob.gate(rep, plain)
	if err != nil {
		return err
	}
	rep.info["cycles_untraced"] = len(plain) / (len(oocKernels) * len(ob.budgets))
	for i := range plain {
		plain[i].res = nil
	}
	var lat []float64
	for _, r := range plain {
		lat = append(lat, msOf(r.wall))
	}
	rep.info["latency_samples"] = len(lat)
	rep.info["latency_tail_percentile_supported"] = supportedTail(len(lat))
	if !rep.trace {
		rep.set("setup_s", median(setups), "s")
		rep.set("jobs_per_s", float64(len(plain))/elapsed.Seconds(), "1/s")
		rep.set("latency_p50_ms", median(lat), "ms")
		rep.set("latency_p95_ms", percentile(lat, 95), "ms")
		heap, err := ob.heapProbe(ctx)
		if err != nil {
			return err
		}
		rep.set("live_heap_mb", heap, "MB")
		return nil
	}

	tr := newTracer()
	traced, _, err := ob.pass(ctx, tr)
	if err != nil {
		return err
	}
	rep.attempted += int64(len(traced))
	for _, r := range traced {
		if r.print != ref[r.kernel] {
			rep.fail("%s at %s budget: result differs from the in-memory reference", r.kernel, r.budget)
		}
	}
	rep.info["cycles_traced"] = len(traced) / (len(oocKernels) * len(ob.budgets))
	perCycle := len(oocKernels) * len(ob.budgets)
	for _, b := range ob.budgets {
		var runSum, inmemSum float64
		var st store.Stats
		for _, k := range oocKernels {
			var ms []float64
			for _, r := range traced {
				if r.kernel == k && r.budget == b.name {
					ms = append(ms, msOf(r.dur))
				}
			}
			rep.set(fmt.Sprintf("store.run_ms.%s.%s", b.name, k), median(ms), "ms")
			runSum += median(ms)
			inmemSum += inmem[k]
		}
		// Exact tier counts: the first traced cycle's runs at this budget.
		for _, r := range traced[:perCycle] {
			if r.budget == b.name {
				st.FarBytes += r.stats.FarBytes
				st.Misses += r.stats.Misses
				st.Hits += r.stats.Hits
				st.Evictions += r.stats.Evictions
			}
		}
		rep.set("store.edges_per_s."+b.name, median(cycleRates(plain, b.name)), "edges/s")
		rep.set("store.far_bytes."+b.name, float64(st.FarBytes), "B")
		rep.set("store.misses."+b.name, float64(st.Misses), "count")
		rep.set("store.hits."+b.name, float64(st.Hits), "count")
		rep.set("store.evictions."+b.name, float64(st.Evictions), "count")
		rep.set("store.hit_ratio."+b.name, ratio(float64(st.Hits), float64(st.Hits+st.Misses)), "ratio")
		rep.set("store.over_inmem."+b.name, ratio(runSum, inmemSum), "ratio")
	}
	for _, k := range oocKernels {
		rep.set("kernels.inmem_ms."+k, inmem[k], "ms")
	}
	if err := ob.pinProbe(rep, tr); err != nil {
		return err
	}
	rep.set("store.write_s", median(writes), "s")
	rep.set("store.open_ms", median(opens), "ms")
	rep.set("gen.generate_s", median(gens), "s")
	rep.set("trace.overhead_frac", 1-ratio(totalRate(traced), totalRate(plain)), "ratio")
	spans := tr.finish()
	rep.info["spans"] = len(spans)
	return writeTrace(rep.artifact("trace"), rep.info, spans)
}

// workingSet pins every segment once on an unlimited store and returns
// the decompressed bytes they occupy, with each segment's first vertex.
func workingSet(st *store.Store) (int64, []graph.VertexID, error) {
	var starts []graph.VertexID
	n := graph.VertexID(st.NumVertices())
	for v := graph.VertexID(0); v < n; {
		seg, err := st.Pin(v)
		if err != nil {
			return 0, nil, err
		}
		starts = append(starts, v)
		lo, hi := v, n // seg covers v..lo; the next segment starts at hi
		for hi-lo > 1 {
			mid := lo + (hi-lo)/2
			if seg.Contains(mid) {
				lo = mid
			} else {
				hi = mid
			}
		}
		seg.Release()
		v = hi
	}
	return st.Stats().ResidentBytes, starts, nil
}

// pass runs the run's cycles of every kernel at every budget, each
// cycle in a seeded order. It returns the runs and the pass's wall time.
func (ob *oocBench) pass(ctx context.Context, tr *tracer) ([]oocRun, time.Duration, error) {
	type job struct {
		kernel string
		budget oocBudget
	}
	var jobs []job
	for _, b := range ob.budgets {
		for _, k := range oocKernels {
			jobs = append(jobs, job{k, b})
		}
	}
	var runs []oocRun
	start := time.Now()
	for c := 0; c < ob.cycles; c++ {
		rng := newSplitmix(ob.seed, uint64(c), 3)
		rng.shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
		cyc := tr.begin("ooc.cycle", -1, "")
		for _, j := range jobs {
			t := time.Now()
			r, err := ob.runOnce(ctx, j.kernel, j.budget, tr, cyc, fmt.Sprintf("c%d/%s/%s", c, j.budget.name, j.kernel), nil)
			if err != nil {
				return nil, 0, err
			}
			r.wall = time.Since(t)
			if c > 0 {
				r.res = nil
			}
			runs = append(runs, r)
		}
		tr.end(cyc)
	}
	return runs, time.Since(start), nil
}

// runOnce opens the container at budget b, runs kernel from it, and
// closes it. A non-nil heap is called after the run, before the close,
// and its value kept in heapMB.
func (ob *oocBench) runOnce(ctx context.Context, kernel string, b oocBudget, tr *tracer, parent int, job string, heap func() float64) (oocRun, error) {
	k, err := cliconf.MakeKernel(kernel, oocPRIters)
	if err != nil {
		return oocRun{}, err
	}
	root := tr.begin("ooc.run", parent, job)
	defer tr.end(root)
	sp := tr.begin("store.open", root, job)
	st, err := store.OpenFile(ob.path, store.Options{LocalBytes: b.bytes})
	tr.end(sp)
	if err != nil {
		return oocRun{}, err
	}
	defer st.Close() // read-only
	sp = tr.begin("store.run", root, job)
	t := time.Now()
	res, err := store.Run(ctx, st, k)
	dur := time.Since(t)
	tr.end(sp)
	if err != nil {
		return oocRun{}, fmt.Errorf("%s at %s budget: %w", kernel, b.name, err)
	}
	r := oocRun{kernel: kernel, budget: b.name, dur: dur, stats: st.Stats(), print: fingerprint(res), res: res}
	for _, e := range res.ActiveEdges {
		r.edges += e
	}
	if heap != nil {
		r.heapMB = heap()
	}
	return r, nil
}

// gate checks every out-of-core result against the in-memory push-serial
// reference over the materialized container: the first cycle's results
// field by field, and every run by fingerprint. It returns the
// references' fingerprints and their run times in milliseconds.
func (ob *oocBench) gate(rep *report, runs []oocRun) (map[string]uint64, map[string]float64, error) {
	st, err := store.OpenFile(ob.path, store.Options{})
	if err != nil {
		return nil, nil, err
	}
	g, err := st.Materialize()
	_ = st.Close() // read-only
	if err != nil {
		return nil, nil, err
	}
	prints := make(map[string]uint64)
	inmem := make(map[string]float64)
	for _, name := range oocKernels {
		k, err := cliconf.MakeKernel(name, oocPRIters)
		if err != nil {
			return nil, nil, err
		}
		t := time.Now()
		want, err := kernels.RunSerialWith(g, k, kernels.Options{Direction: kernels.DirectionPush})
		if err != nil {
			return nil, nil, err
		}
		inmem[name] = msOf(time.Since(t))
		prints[name] = fingerprint(want)
		for _, r := range runs {
			if r.kernel != name {
				continue
			}
			if r.res != nil {
				if msg := resultDiff(r.res, want); msg != "" {
					rep.fail("%s at %s budget: %s", name, r.budget, msg)
					continue
				}
			}
			if r.print != prints[name] {
				rep.fail("%s at %s budget: result fingerprint differs from the in-memory reference", name, r.budget)
			}
		}
	}
	return prints, inmem, nil
}

// resultDiff describes the first difference between two results, ""
// when they are bit-identical.
func resultDiff(got, want *kernels.Result) string {
	if len(got.Values) != len(want.Values) {
		return fmt.Sprintf("%d values, want %d", len(got.Values), len(want.Values))
	}
	for v := range want.Values {
		if math.Float64bits(got.Values[v]) != math.Float64bits(want.Values[v]) {
			return fmt.Sprintf("value[%d] = %v, want %v", v, got.Values[v], want.Values[v])
		}
	}
	if got.Iterations != want.Iterations || got.Converged != want.Converged ||
		got.PushIterations != want.PushIterations || got.PullIterations != want.PullIterations ||
		got.EdgesInspected != want.EdgesInspected {
		return "iteration telemetry differs"
	}
	if fmt.Sprint(got.FrontierSizes) != fmt.Sprint(want.FrontierSizes) || fmt.Sprint(got.ActiveEdges) != fmt.Sprint(want.ActiveEdges) {
		return "frontier telemetry differs"
	}
	return ""
}

// fingerprint hashes every field of a result bit for bit.
func fingerprint(r *kernels.Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		_, _ = h.Write(b[:]) // hash writes never fail
	}
	for _, v := range r.Values {
		put(math.Float64bits(v))
	}
	put(uint64(r.Iterations))
	put(uint64(r.PushIterations))
	put(uint64(r.PullIterations))
	put(uint64(r.EdgesInspected))
	if r.Converged {
		put(1)
	}
	for _, x := range r.FrontierSizes {
		put(uint64(x))
	}
	for _, x := range r.ActiveEdges {
		put(uint64(x))
	}
	return h.Sum64()
}

// cycleRates returns, per cycle, the edges per second at one budget:
// Σ ActiveEdges over the four kernels ÷ Σ store.Run time.
func cycleRates(runs []oocRun, budget string) []float64 {
	per := len(oocKernels) * 2
	var out []float64
	for c := 0; c+per <= len(runs); c += per {
		var edges, secs float64
		for _, r := range runs[c : c+per] {
			if r.budget == budget {
				edges += float64(r.edges)
				secs += r.dur.Seconds()
			}
		}
		out = append(out, ratio(edges, secs))
	}
	return out
}

// totalRate is the edges per second over every run of a pass.
func totalRate(runs []oocRun) float64 {
	var edges, secs float64
	for _, r := range runs {
		edges += float64(r.edges)
		secs += r.dur.Seconds()
	}
	return ratio(edges, secs)
}

// heapProbe returns the live heap in MiB at the end of a BFS run at the
// pressure budget, with its store still open: the local tier's
// decompressed frames plus the runner's result, after a collection.
func (ob *oocBench) heapProbe(ctx context.Context) (float64, error) {
	r, err := ob.runOnce(ctx, "bfs", ob.budgets[1], nil, -1, "", measureHeapMB)
	if err != nil {
		return 0, err
	}
	return r.heapMB, nil
}

// pinProbe times Store.Pin/Release per segment: at the pressure budget,
// cyclic passes over every segment miss on every pin (the LRU worst
// case), which times the miss and decode path; on an unlimited store,
// pins after a warming pass hit.
func (ob *oocBench) pinProbe(rep *report, tr *tracer) error {
	const passes = 3
	order := append([]graph.VertexID(nil), ob.starts...)
	newSplitmix(ob.seed, 4).shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	probe := func(b oocBudget) (miss, hit []float64, far int64, missSecs float64, err error) {
		st, err := store.OpenFile(ob.path, store.Options{LocalBytes: b.bytes})
		if err != nil {
			return nil, nil, 0, 0, err
		}
		defer st.Close() // read-only
		sp := tr.begin("store.pin_probe", -1, "probe/"+b.name)
		defer tr.end(sp)
		for p := 0; p < passes; p++ {
			for _, v := range order {
				before := st.Stats()
				t := time.Now()
				seg, err := st.Pin(v)
				d := time.Since(t)
				if err != nil {
					return nil, nil, 0, 0, err
				}
				seg.Release()
				after := st.Stats()
				if after.Misses > before.Misses {
					miss = append(miss, float64(d))
					far += after.FarBytes - before.FarBytes
					missSecs += d.Seconds()
				} else {
					hit = append(hit, float64(d))
				}
			}
		}
		return miss, hit, far, missSecs, nil
	}
	miss, _, far, missSecs, err := probe(ob.budgets[1])
	if err != nil {
		return err
	}
	_, hit, _, _, err := probe(ob.budgets[0])
	if err != nil {
		return err
	}
	rep.set("store.pin_miss_p50_us", median(miss)/1e3, "us")
	rep.set("store.miss_decode_MBps", ratio(float64(far)/(1<<20), missSecs), "MB/s")
	rep.set("store.pin_hit_p50_ns", median(hit), "ns")
	rep.info["pin_probe_misses"], rep.info["pin_probe_hits"] = len(miss), len(hit)
	return nil
}
