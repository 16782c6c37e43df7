package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"testing"

	"repro/internal/serve"
)

func TestSupportedTailLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90},
		{100, 90}, {99, 75}, {40, 75}, {39, 50}, {20, 50}, {19, 0}, {0, 0},
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 200..1, unsorted
	}
	if got := percentile(xs, 95); got != 190 {
		t.Errorf("p95 of 1..200 = %v, want 190", got)
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// render lists a stream's ops as comparable strings.
func render(st stream) []string {
	out := make([]string, len(st.ops))
	for i, o := range st.ops {
		if o.upload {
			out[i] = fmt.Sprintf("upload v%d", o.version)
			continue
		}
		b, _ := json.Marshal(st.specs[o.spec])
		out[i] = string(b)
	}
	return out
}

func TestStreamsAreSeededPermutations(t *testing.T) {
	for name, build := range map[string]func(uint64) stream{"cold": coldStream, "hot": hotStream} {
		a, b, c := render(build(1)), render(build(1)), render(build(2))
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different streams", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same order", name)
		}
		sort.Strings(a)
		sort.Strings(c)
		if !reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave different multisets", name)
		}
	}
}

// TestColdBlocksHoldTheSameWork checks that every block runs each
// engine × graph × kernel combination once, and each engine's
// combinations at each partition count equally often.
func TestColdBlocksHoldTheSameWork(t *testing.T) {
	st := coldStream(3)
	for b := 0; b < coldBlocks; b++ {
		combos := map[string]int{}
		parts := map[string]int{}
		for _, o := range st.ops[b*coldBlockOps : (b+1)*coldBlockOps] {
			if o.upload {
				continue
			}
			s := st.specs[o.spec]
			combos[fmt.Sprint(s.Engine, s.Arch, s.Snapshot, s.Kernel)]++
			parts[fmt.Sprint(s.Engine, s.Arch, s.Partitions)]++
		}
		if len(combos) != coldBlockJobs {
			t.Fatalf("block %d holds %d distinct combinations, want %d", b, len(combos), coldBlockJobs)
		}
		for k, n := range parts {
			if n != coldBlockJobs/len(coldEngines)/len(coldPartitions) {
				t.Fatalf("block %d: %s appears %d times", b, k, n)
			}
		}
	}
}

func TestColdPrefixesBalanceEngines(t *testing.T) {
	st := coldStream(7)
	counts := map[string]int{}
	seen := 0
	for _, o := range st.ops {
		if o.upload {
			continue
		}
		s := st.specs[o.spec]
		counts[s.Engine+"/"+s.Arch]++
		seen++
		if seen%len(coldEngines) == 0 {
			for e, n := range counts {
				if n != seen/len(coldEngines) {
					t.Fatalf("after %d jobs engine %s has %d", seen, e, n)
				}
			}
		}
	}
}

// cacheKey mirrors the server's result-cache key of a spec on one
// snapshot version: the normalized spec with Workers zeroed.
func cacheKey(t *testing.T, s serve.JobSpec) string {
	t.Helper()
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	s.Workers = 0
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestColdStreamNeverRepeatsACacheKey(t *testing.T) {
	st := coldStream(1)
	keys := map[string]int{}
	jobs := 0
	for i, o := range st.ops {
		if o.upload {
			continue
		}
		jobs++
		k := cacheKey(t, st.specs[o.spec])
		if j, dup := keys[k]; dup {
			t.Fatalf("ops %d and %d share cache key %s", j, i, k)
		}
		keys[k] = i
	}
	// A run serves a few dozen jobs a second; the stream must outlast
	// a minute at ten times that.
	if jobs < 60*100 {
		t.Errorf("cold stream holds %d jobs, fewer than a run could submit", jobs)
	}
	if want := coldBlocks * coldBlockOps; len(st.ops) != want {
		t.Errorf("cold stream holds %d ops, want %d", len(st.ops), want)
	}
	for b := 0; b < coldBlocks; b++ {
		uploads := 0
		for _, o := range st.ops[b*coldBlockOps : (b+1)*coldBlockOps] {
			if o.upload {
				uploads++
			}
		}
		if uploads != uploadsPerBlock {
			t.Fatalf("block %d holds %d uploads, want %d", b, uploads, uploadsPerBlock)
		}
	}
}

func TestHotSpecsFitTheDefaultResultCache(t *testing.T) {
	st := hotStream(1)
	keys := map[string]bool{}
	for _, o := range st.ops {
		if o.upload {
			t.Fatal("the hot stream uploads")
		}
		keys[cacheKey(t, st.specs[o.spec])] = true
	}
	const defaultCacheEntries = 256 // serve.NewResultCache(0)
	if len(keys) != len(hotSpecs()) || len(keys) > defaultCacheEntries {
		t.Errorf("hot stream uses %d distinct keys; want %d, at most %d", len(keys), len(hotSpecs()), defaultCacheEntries)
	}
	c := zipfCounts(len(hotSpecs()), hotRoundLen)
	for k := 1; k < len(c); k++ {
		if c[k] > c[k-1] || c[k] == 0 {
			t.Fatalf("zipf counts %v are not positive and non-increasing", c)
		}
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	parent := span{Start: 0, End: 100}
	children := []span{
		{Start: 20, End: 40}, {Start: 10, End: 30}, // overlap: 10..40
		{Start: 60, End: 70},
		{Start: 90, End: 120},  // clipped to 90..100
		{Start: 200, End: 300}, // outside
	}
	if got := selfTime(parent, children); got != 100-30-10-10 {
		t.Errorf("self time = %d, want 50", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("self time without children = %d, want 100", got)
	}
}

func TestFinishLinksServerSpansToTheInnermostClientSpan(t *testing.T) {
	tr := newTracer()
	job := tr.add(span{Name: "job", Start: 0, End: 100, Parent: -1, Job: "j1"})
	wait := tr.add(span{Name: "client.wait", Start: 10, End: 90, Parent: job, Job: "j1"})
	poll := tr.add(span{Name: "http.status", Start: 20, End: 40, Parent: -1, Job: "j1"})
	handler := tr.add(span{Name: "server.status", Start: 25, End: 35, Parent: -1, Job: "j1"})
	other := tr.add(span{Name: "server.status", Start: 25, End: 35, Parent: -1, Job: "j2"})
	spans := tr.finish()
	for _, c := range []struct{ span, parent int }{{poll, wait}, {handler, poll}, {other, -1}, {job, -1}} {
		if got := spans[c.span].Parent; got != c.parent {
			t.Errorf("%s (job %s): parent %d, want %d", spans[c.span].Name, spans[c.span].Job, got, c.parent)
		}
	}
	if got := spans[wait].Self; got != 80-20 {
		t.Errorf("client.wait self time = %d, want 60", got)
	}
	if got := spans[poll].Self; got != 20-10 {
		t.Errorf("http.status self time = %d, want 10", got)
	}
}

// The metrics the binary reports are the ones BENCHMARK.json names, in
// its order and units.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind string
		file []struct{ Name, Unit string }
		code []metricDef
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		var file []metricDef
		for _, m := range c.file {
			file = append(file, metricDef{m.Name, m.Unit})
		}
		if !reflect.DeepEqual(file, c.code) {
			t.Errorf("%s: BENCHMARK.json has %v, the binary reports %v", c.kind, file, c.code)
		}
	}
}

func TestResultMetricsHoldExactlyTheManifest(t *testing.T) {
	all := make(map[string]metric)
	for _, d := range endToEnd {
		all[d.name] = metric{Value: 1, Unit: d.unit}
	}
	if got, _, err := resultMetrics(all, false); err != nil || len(got) != len(endToEnd) {
		t.Fatalf("complete end-to-end set: %d metrics, err %v", len(got), err)
	}
	delete(all, "latency_p95_ms")
	if _, _, err := resultMetrics(all, false); err == nil {
		t.Error("a missing end-to-end metric was accepted")
	}
	if _, _, err := resultMetrics(map[string]metric{"setup_s": {1, "ms"}}, false); err == nil {
		t.Error("a metric in the wrong unit was accepted")
	}
	if _, _, err := resultMetrics(map[string]metric{"store.write_s": {1, "s"}}, false); err == nil {
		t.Error("a per-layer metric was accepted in the end-to-end result")
	}

	got, unreached, err := resultMetrics(map[string]metric{"store.write_s": {2, "s"}}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(perLayer) || len(unreached) != len(perLayer)-1 {
		t.Fatalf("%d metrics, %d unreached; want %d and %d", len(got), len(unreached), len(perLayer), len(perLayer)-1)
	}
	if got["store.write_s"].Value != 2 || got["serve.encode_p50_ms"] != (metric{0, "ms"}) {
		t.Errorf("per-layer result: %v", got)
	}
}
