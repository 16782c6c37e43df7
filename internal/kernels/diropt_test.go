package kernels

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// runDirOptBFS is direction-optimized BFS (Beamer et al.) as the engine
// runs it: push/pull switching under the default alpha and beta.
func runDirOptBFS(g *graph.Graph, source graph.VertexID) (*Result, error) {
	return RunSerialWith(g, NewBFS(source), Options{Direction: DirectionAuto})
}

func TestDirOptMatchesClassicBFS(t *testing.T) {
	graphs := map[string]*graph.Graph{}
	g1, err := gen.Twitter7.Generate(0.25, gen.Config{Seed: 7, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	graphs["rmat"] = g1
	g2, err := gen.Community(2000, 10, 6, 0.9, gen.Config{Seed: 7, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	graphs["community"] = g2
	g3, err := gen.Grid(30, 30, gen.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	graphs["grid"] = g3

	for name, g := range graphs {
		for _, src := range []graph.VertexID{0, graph.VertexID(g.NumVertices() / 2)} {
			want := BFSClassic(g, src)
			res, err := runDirOptBFS(g, src)
			if err != nil {
				t.Fatal(err)
			}
			got := res.Values
			for v := range want {
				if math.IsInf(want[v], 1) && math.IsInf(got[v], 1) {
					continue
				}
				if got[v] != want[v] {
					t.Fatalf("%s src=%d: level[%d] = %g, want %g", name, src, v, got[v], want[v])
				}
			}
		}
	}
}

func TestDirOptUsesPullOnDenseGraph(t *testing.T) {
	// An RMAT graph has an explosive middle frontier: the hybrid must
	// choose pull there and inspect fewer edges than pure push.
	g, err := gen.Twitter7.Generate(0.25, gen.Config{Seed: 7, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := runDirOptBFS(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.PullIterations == 0 {
		t.Error("hybrid never chose pull on an RMAT graph")
	}
	// Pure push inspects every out-edge of every visited vertex.
	res, err := RunSerial(g, NewBFS(0))
	if err != nil {
		t.Fatal(err)
	}
	var pushEdges int64
	for _, e := range res.ActiveEdges {
		pushEdges += e
	}
	if stats.EdgesInspected >= pushEdges {
		t.Errorf("hybrid inspected %d edges, push %d — no win", stats.EdgesInspected, pushEdges)
	}
}

func TestDirOptStaysPushOnHighDiameterGraph(t *testing.T) {
	// A long chain never has a large frontier: the hybrid must never pull.
	n := 2000
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(graph.VertexID(i), graph.VertexID(i+1), 1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	stats, err := runDirOptBFS(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.PullIterations != 0 {
		t.Errorf("hybrid pulled %d times on a chain", stats.PullIterations)
	}
}

func TestDirOptSourceRange(t *testing.T) {
	g, err := gen.ErdosRenyi(10, 20, gen.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runDirOptBFS(g, 99); err == nil {
		t.Error("accepted out-of-range source")
	}
}

func BenchmarkDirOptBFS(b *testing.B) {
	g, err := gen.RMATGraph500(14, 16, gen.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runDirOptBFS(g, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDirOptTransposeCachedAcrossRuns pins the satellite bugfix: the
// transpose is built once per graph and shared by every hybrid run, not
// rebuilt per call.
func TestDirOptTransposeCachedAcrossRuns(t *testing.T) {
	g, err := gen.Twitter7.Generate(0.25, gen.Config{Seed: 7, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runDirOptBFS(g, 0); err != nil {
		t.Fatal(err)
	}
	tr := g.Transpose()
	if _, err := runDirOptBFS(g, graph.VertexID(g.NumVertices()/2)); err != nil {
		t.Fatal(err)
	}
	if g.Transpose() != tr {
		t.Fatal("second hybrid run rebuilt the transpose")
	}
	if tr.Transpose() != g {
		t.Fatal("transpose round trip is not the original graph")
	}
}

// TestDirOptAllocBound is the before/after allocation test for the
// frontier-churn bug: the old implementation allocated a fresh next
// frontier every level (plus a transpose per call), so a warm run on a
// 2000-level chain cost thousands of allocations. On the engine a run
// costs only its constant setup — independent of the iteration count up
// to the amortized telemetry appends.
func TestDirOptAllocBound(t *testing.T) {
	n := 2000
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(graph.VertexID(i), graph.VertexID(i+1), 1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		if _, err := runDirOptBFS(g, 0); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the graph-side caches (transpose is unused on a chain but cheap)
	if allocs := testing.AllocsPerRun(5, run); allocs > 64 {
		t.Fatalf("hybrid BFS run allocates %.0f times on a %d-level chain; want setup-only (<= 64)", allocs, n)
	}
}
