package main

import (
	"repro/internal/serve"
)

// The serve workloads draw their traffic from op streams built here.
// Both streams are sequences of rounds; every round holds the same
// multiset of ops and the workload seed only permutes each round. So
// two seeds give the same work in a different order, and any prefix of
// the stream — a time-limited run stops at an arbitrary point — holds
// nearly the same mix.

// Snapshot names of the served graphs, in the order graph indexes use.
var serveGraphs = []string{"twitter7", "uk-2005", "wiki-talk"}

// serveScale is the dataset scale of the served stand-ins.
const serveScale = 0.5

// Every upload sends a version of uploadGraph (twitter7, the largest),
// alternating between its graphVersions precomputed versions. One graph
// keeps a run's upload latencies one population; over three graph sizes
// the median would sit on whichever size lands in the middle.
const (
	uploadGraph   = 0
	graphVersions = 2
)

var (
	coldKernels    = []string{"pagerank", "bfs", "cc", "sssp"}
	coldPartitions = []int{4, 8, 16}
)

// engineClass is one execution choice a job can make.
type engineClass struct {
	engine, arch string
}

var coldEngines = []engineClass{
	{serve.EngineSim, "distributed"},
	{serve.EngineSim, "distributed-ndp"},
	{serve.EngineSim, "disaggregated"},
	{serve.EngineSim, "disaggregated-ndp"},
	{serve.EngineSerial, ""},
	{serve.EngineCluster, ""},
}

// The cold stream is a sequence of blocks. A block holds every
// engine × graph × kernel combination once (72 jobs) plus
// uploadsPerBlock snapshot uploads, about one request in 20. A cold pass
// runs a whole number of blocks, so every run does the same work.
const (
	uploadsPerBlock = 4
	coldBlockJobs   = 72
	coldBlockOps    = coldBlockJobs + uploadsPerBlock
	// coldBlocks bounds the stream: 13,824 distinct specs, far more than
	// a run submits.
	coldBlocks = 192
)

// op is one request of a client: a job submission or a snapshot upload.
type op struct {
	upload  bool
	version int // upload: which version of uploadGraph to send
	spec    int // job: index into the stream's specs
}

// stream is an op sequence over a table of job specs (kept apart so a
// long stream of repeated specs stays small in memory).
type stream struct {
	specs []serve.JobSpec
	ops   []op
}

// splitmix is a small seeded generator (SplitMix64); the streams use
// their own so that they do not depend on the standard library's
// generator choices.
type splitmix struct{ s uint64 }

func newSplitmix(seeds ...uint64) *splitmix {
	r := &splitmix{s: 0x9e3779b97f4a7c15}
	for _, s := range seeds {
		r.s ^= s
		r.next()
	}
	return r
}

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *splitmix) intn(n int) int { return int(r.next() % uint64(n)) }

// shuffle permutes n items with Fisher–Yates.
func (r *splitmix) shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.intn(i+1))
	}
}

// coldBlock returns the jobs of block b. Within an engine, the twelve
// graph × kernel combinations take the partition counts 4, 8 and 16 in
// turn (four each), rotating from block to block, so three consecutive
// blocks run every combination at every count; the partitioner seed is
// b/3 + 1, so no spec repeats. The block is ordered in groups of one job
// per engine, so every prefix holds the engines in equal shares; which
// combination each engine runs next, and the engine order inside a
// group, are seeded.
func coldBlock(seed uint64, b int) []serve.JobSpec {
	rng := newSplitmix(seed, uint64(b), 1)
	perEngine := make([][]serve.JobSpec, len(coldEngines))
	for e, ec := range coldEngines {
		var specs []serve.JobSpec
		for _, g := range serveGraphs {
			for _, k := range coldKernels {
				specs = append(specs, serve.JobSpec{
					Snapshot:   g,
					Engine:     ec.engine,
					Arch:       ec.arch,
					Kernel:     k,
					Partitions: coldPartitions[(len(specs)+b)%len(coldPartitions)],
					Seed:       uint64(b/len(coldPartitions) + 1),
				})
			}
		}
		rng.shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
		perEngine[e] = specs
	}
	order := make([]int, len(coldEngines))
	var out []serve.JobSpec
	for i := range perEngine[0] {
		for e := range order {
			order[e] = e
		}
		rng.shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		for _, e := range order {
			out = append(out, perEngine[e][i])
		}
	}
	return out
}

// coldStream is the serve-cold op stream: the cold blocks in order, each
// with its uploads at evenly spaced positions. Uploads alternate between
// the versions, starting with version 1 (version 0 is installed at
// set-up), so every upload really changes the snapshot.
func coldStream(seed uint64) stream {
	var st stream
	uploads := 0
	for b := 0; b < coldBlocks; b++ {
		for _, s := range coldBlock(seed, b) {
			st.ops = append(st.ops, op{spec: len(st.specs)})
			st.specs = append(st.specs, s)
			if len(st.ops)%(coldBlockOps/uploadsPerBlock) == coldBlockOps/uploadsPerBlock-1 {
				st.ops = append(st.ops, op{upload: true, version: (uploads + 1) % graphVersions})
				uploads++
			}
		}
	}
	return st
}

// hotSpecs is the serve-hot spec set: every graph × kernel on the
// disaggregated-NDP simulator and the serial engine, plus wiki-talk on
// the cluster and twitter7 on the distributed simulator — 32 specs,
// well inside the default 256-entry result cache.
func hotSpecs() []serve.JobSpec {
	var specs []serve.JobSpec
	for _, g := range serveGraphs {
		for _, k := range coldKernels {
			specs = append(specs,
				serve.JobSpec{Snapshot: g, Engine: serve.EngineSim, Arch: "disaggregated-ndp", Kernel: k},
				serve.JobSpec{Snapshot: g, Engine: serve.EngineSerial, Kernel: k})
		}
	}
	for _, k := range coldKernels {
		specs = append(specs,
			serve.JobSpec{Snapshot: "wiki-talk", Engine: serve.EngineCluster, Kernel: k},
			serve.JobSpec{Snapshot: "twitter7", Engine: serve.EngineSim, Arch: "distributed", Kernel: k})
	}
	return specs
}

// hotRoundLen is the number of jobs in one hot round.
const hotRoundLen = 1024

// hotRounds bounds the hot stream; a run that exhausts it wraps around.
const hotRounds = 128

// zipfCounts splits total draws over n ranks in proportion to 1/rank
// (Zipf, s = 1), by largest remainder so the counts sum to total.
func zipfCounts(n, total int) []int {
	w := make([]float64, n)
	var ws float64
	for k := range w {
		w[k] = 1 / float64(k+1)
		ws += w[k]
	}
	counts := make([]int, n)
	rem := make([]float64, n)
	given := 0
	for k := range w {
		exact := float64(total) * w[k] / ws
		counts[k] = int(exact)
		rem[k] = exact - float64(counts[k])
		given += counts[k]
	}
	for ; given < total; given++ {
		best := 0
		for k := range rem {
			if rem[k] > rem[best] {
				best = k
			}
		}
		counts[best]++
		rem[best] = -1
	}
	return counts
}

// hotStream is the serve-hot op stream: rounds of hotRoundLen jobs in
// which spec k (of hotSpecs, in its fixed order) appears in Zipf
// proportion, each round shuffled by the seed.
func hotStream(seed uint64) stream {
	st := stream{specs: hotSpecs()}
	var round []int
	for k, c := range zipfCounts(len(st.specs), hotRoundLen) {
		for i := 0; i < c; i++ {
			round = append(round, k)
		}
	}
	for r := 0; r < hotRounds; r++ {
		rng := newSplitmix(seed, uint64(r), 2)
		perm := append([]int(nil), round...)
		rng.shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		for _, k := range perm {
			st.ops = append(st.ops, op{spec: k})
		}
	}
	return st
}
