package store

import (
	"context"
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/kernels"
)

// This file is the out-of-core kernel runner: the push-direction serial
// reference machine from internal/kernels re-expressed over a Store, so
// adjacency streams through the segment tier instead of living in RAM.
//
// Bit-identity is the contract: Run mirrors RunSerialWith(DirectionPush)
// value for value — same traversal order (frontier activation order),
// same direct per-destination aggregation in the same order, same
// ascending-id apply — so its Result compares deep-equal against the
// in-memory engines in the differential suite. It does not mirror the
// reference call for call: a SourceKernel's contribution is hoisted to
// once per frontier vertex, and the fold is the kernel's reduction
// operator inlined rather than an Aggregate call per edge. The only new behavior is the pin
// cursor: the runner keeps the current segment pinned across consecutive
// frontier vertices and re-pins only on a segment switch, which is what
// makes the steady-state read path hit the tier rather than the
// container. Each iteration's sequence of cursor pins is known before it
// starts, and the runner hands it to the store as the schedule its
// victim rule and prefetcher follow (schedule.go).

// CheckKernel validates that the container satisfies k's requirements —
// the out-of-core counterpart of kernels.CheckGraph. The O(E) negative-
// weight scan is replaced by the flag the writer computed while it had
// the weights in hand.
func CheckKernel(s *Store, k kernels.Kernel) error {
	if k.Traits().NeedsWeights {
		if !s.Weighted() {
			return fmt.Errorf("%w: %s", kernels.ErrNeedsWeights, k.Name())
		}
		if !s.NonNegativeWeights() {
			return fmt.Errorf("kernels: %s requires non-negative weights; container records a negative weight", k.Name())
		}
	}
	if sk, ok := k.(kernels.SourcedKernel); ok {
		if int(sk.Source()) >= s.NumVertices() {
			return fmt.Errorf("kernels: source %d outside graph with %d vertices", sk.Source(), s.NumVertices())
		}
	}
	return nil
}

// runner is the out-of-core engine's working set, allocated once per run.
type runner struct {
	s     *Store
	k     kernels.Kernel
	sk    kernels.StatefulKernel
	hasSK bool
	tr    kernels.Traits
	view  *graph.Graph // offsets-only view handed to kernel callbacks
	n     int

	values   []float64
	frontier *kernels.Frontier
	spare    *kernels.Frontier
	res      *kernels.Result

	agg      []float64
	has      []bool
	identity float64

	frontierEdges int64

	// plan is the store's schedule while this run holds it (nil when
	// another run does), and steps the iteration's segment order.
	plan  *plan
	steps []int32

	// cur is the pin cursor: the segment covering the vertex most
	// recently scattered, held pinned until the traversal crosses a
	// segment boundary (or the run exits, including by error or cancel).
	cur   Seg
	curOK bool
	err   error
}

// Run executes the kernel out-of-core against the container, checking
// ctx between iterations. The Result is bit-identical to
// kernels.RunSerialWith(s.Materialize(), k, Options{Direction:
// DirectionPush}). While it runs, a prefetcher goroutine decodes the
// segments its traversal is about to pin; Run joins it before returning
// on every path.
func Run(ctx context.Context, s *Store, k kernels.Kernel) (*kernels.Result, error) {
	if err := CheckKernel(s, k); err != nil {
		return nil, err
	}
	view, err := s.VertexView()
	if err != nil {
		return nil, err
	}
	n := s.NumVertices()
	r := &runner{s: s, k: k, tr: k.Traits(), view: view, n: n}
	r.sk, r.hasSK = k.(kernels.StatefulKernel)
	r.values = make([]float64, n)
	for v := 0; v < n; v++ {
		r.values[v] = k.InitialValue(view, graph.VertexID(v))
	}
	r.frontier = kernels.NewFrontier(n)
	r.spare = kernels.NewFrontier(n)
	if init := k.InitialFrontier(view); init == nil {
		r.frontier.ActivateAll()
	} else {
		for _, v := range init {
			r.frontier.Activate(v)
		}
	}
	r.res = &kernels.Result{Values: r.values}
	r.agg = make([]float64, n)
	r.has = make([]bool, n)
	r.identity = k.Identity()
	if r.plan = s.claim(); r.plan != nil {
		done := make(chan struct{})
		go s.prefetch(r.plan, done)
		defer func() {
			close(r.plan.jobs)
			<-done
			s.unclaim(r.plan)
		}()
	}
	defer r.dropCursor()
	return r.run(ctx)
}

// run is the iteration loop — structurally identical to the in-memory
// engine's, minus the direction switch (out-of-core traversal is
// push-only; pull would thrash the tier through the transpose).
func (r *runner) run(ctx context.Context) (*kernels.Result, error) {
	res, tr := r.res, r.tr
	for iter := 0; iter < tr.MaxIterations; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if r.frontier.Count() == 0 {
			res.Converged = true
			break
		}
		r.prepare()
		res.FrontierSizes = append(res.FrontierSizes, r.frontier.Count())
		r.traverse()
		if r.err != nil {
			return nil, r.err
		}
		res.ActiveEdges = append(res.ActiveEdges, r.frontierEdges)
		res.EdgesInspected += r.frontierEdges
		res.PushIterations++
		res.Iterations++

		if r.hasSK {
			r.frontier.ForEach(r.sk.OnScattered)
		}

		next, residual := r.apply()
		if tr.AllVerticesActive {
			if tr.Epsilon > 0 && residual < tr.Epsilon {
				res.Converged = true
				break
			}
			next.ActivateAll()
		}
		r.spare = r.frontier
		r.frontier = next
	}
	if !res.Converged && res.Iterations < tr.MaxIterations {
		res.Converged = true
	}
	return res, nil
}

// prepare sums the frontier's out-edge volume from the resident offsets
// and, in the same walk, records the segments the pin cursor will visit
// — no segment touches — then installs them as the store's schedule.
func (r *runner) prepare() {
	r.frontierEdges = 0
	r.steps = r.steps[:0]
	s := r.s
	lo, hi := uint64(1), uint64(0) // the last step's vertex range, empty at first
	r.frontier.ForEach(func(v graph.VertexID) {
		r.frontierEdges += s.OutDegree(v)
		if uint64(v) < lo || uint64(v) >= hi {
			idx := s.segFor(v)
			r.steps = append(r.steps, idx)
			lo, hi = s.segs[idx].first, s.segs[idx].first+s.segs[idx].count
		}
	})
	if r.plan != nil {
		s.schedule(r.plan, r.steps)
	}
}

// traverse clears the aggregation arrays and scatters the frontier. The
// cursor drops at the end so the next iteration pins its schedule from
// the first step.
func (r *runner) traverse() {
	for i := range r.agg {
		r.agg[i] = r.identity
		r.has[i] = false
	}
	r.pushSerial()
	r.dropCursor()
}

// pushSerial scatters the frontier's out-edges in activation order,
// aggregating directly per destination — the serial reference semantics,
// with adjacency read through the pin cursor. A SourceKernel's
// contribution is computed once per frontier vertex and folded into
// every neighbor; any other kernel scatters per edge. Either way the fold
// is the inlined Traits().Agg, which Kernel.Aggregate must equal, so each
// destination sees the same values in the same order as the reference. A
// Pin failure latches into r.err and turns the remaining callbacks into
// no-ops (ForEach cannot stop early).
func (r *runner) pushSerial() {
	s, k, op := r.s, r.k, r.tr.Agg
	src, perSource := k.(kernels.SourceKernel)
	agg, has := r.agg, r.has
	r.frontier.ForEach(func(v graph.VertexID) {
		if r.err != nil {
			return
		}
		if !r.curOK || !r.cur.Contains(v) {
			r.dropCursor()
			sg, err := s.pin(v, r.plan)
			if err != nil {
				r.err = err
				return
			}
			r.cur, r.curOK = sg, true
		}
		deg, val := s.OutDegree(v), r.values[v]
		nbrs := r.cur.Neighbors(v)
		if perSource {
			u, ok := src.ScatterSource(v, val, deg)
			if !ok {
				return
			}
			for _, dst := range nbrs {
				fold(agg, has, op, dst, u)
			}
			return
		}
		wts := r.cur.NeighborWeights(v)
		for i, dst := range nbrs {
			w := float32(1)
			if wts != nil {
				w = wts[i]
			}
			u, ok := k.Scatter(kernels.EdgeContext{
				Src: v, Dst: dst, SrcValue: val, Weight: w, SrcOutDegree: deg,
			})
			if ok {
				fold(agg, has, op, dst, u)
			}
		}
	})
}

// fold reduces u into dst's aggregate, or seeds it with u on the first
// contribution this iteration.
func fold(agg []float64, has []bool, op kernels.AggOp, dst graph.VertexID, u float64) {
	if has[dst] {
		agg[dst] = op.Combine(agg[dst], u)
	} else {
		agg[dst] = u
		has[dst] = true
	}
}

// apply folds the aggregates in ascending vertex order, exactly as the
// in-memory serial apply does; kernel Apply callbacks see the offsets-
// only view.
func (r *runner) apply() (*kernels.Frontier, float64) {
	next := r.spare
	next.Reset()
	k, n := r.k, r.n
	var residual float64
	if r.tr.AllVerticesActive {
		for v := 0; v < n; v++ {
			nv, _ := k.Apply(r.view, graph.VertexID(v), r.values[v], r.agg[v], r.has[v])
			residual += math.Abs(nv - r.values[v])
			r.values[v] = nv
		}
		return next, residual
	}
	for v := 0; v < n; v++ {
		if !r.has[v] {
			continue
		}
		nv, activate := k.Apply(r.view, graph.VertexID(v), r.values[v], r.agg[v], true)
		r.values[v] = nv
		if activate {
			next.Activate(graph.VertexID(v))
		}
	}
	return next, residual
}

// dropCursor releases the pin cursor; deferred by Run so every exit —
// convergence, kernel error, context cancellation — returns the tier's
// refcounts to baseline.
func (r *runner) dropCursor() {
	if r.curOK {
		r.cur.Release()
		r.curOK = false
	}
}
