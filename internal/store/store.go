package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"sync"

	"repro/internal/graph"
)

// Options configures how much of the container may live decompressed in
// memory at once.
type Options struct {
	// LocalBytes is the local-memory tier budget in decompressed bytes;
	// <= 0 means unlimited (every segment stays resident once loaded).
	// Pinned segments never evict, so a pathologically small budget can
	// be exceeded by the pins themselves — the tier then holds exactly
	// the pinned set.
	LocalBytes int64
}

// Stats is a snapshot of the tier's behavior: segment hits and misses,
// evictions, the compressed bytes fetched from the container (the
// far-memory traffic the paper's Figure 5/6 sweeps charge), and the
// decompressed footprint of the resident set.
type Stats struct {
	// Misses counts fetches from the container — a pin's own load or a
	// Run's prefetch. Hits counts pins served without a fetch of their
	// own, including pins that waited on a prefetch in flight.
	Hits, Misses, Evictions int64
	// FarBytes is the compressed payload bytes read from the container —
	// every fetch pays its segment's full payload.
	FarBytes int64
	// ResidentBytes and PeakResidentBytes track the decompressed local
	// tier (current and high-water), frames being loaded included.
	ResidentBytes, PeakResidentBytes int64
	// Pins counts currently outstanding Pin handles.
	Pins int64
}

// Frame states. A loading frame is reserved against the budget and
// decoded outside s.mu by the goroutine that reserved it; pins of it
// wait on s.loaded.
const (
	cold uint8 = iota
	loading
	resident
)

// frame is one segment's residency state: the decompressed buffers, the
// pin count, and the schedule step of its next use.
type frame struct {
	edges   []graph.VertexID
	weights []float32
	refs    int32
	state   uint8
	// next is the step of the running iteration's schedule that pins the
	// frame next, noUse when no schedule touches it again.
	next int
}

// segBufs is a recycled pair of decompressed buffers; evicted frames
// donate theirs so the steady-state miss path allocates nothing.
type segBufs struct {
	edges   []graph.VertexID
	weights []float32
}

// Store is an open gcsr2 container: resident offsets, a lazy segment
// tier, and the source holding the bytes. Safe for concurrent use; each
// successful Pin must be paired with Release on the returned handle.
type Store struct {
	src      source
	weighted bool
	nonNeg   bool
	offsets  []int64
	segs     []segMeta

	maxSegEdges int64 // largest segment edge count (sizes recycled buffers)
	maxSegBytes int64 // largest compressed payload (sizes the read scratch)

	mu       sync.Mutex
	loaded   sync.Cond // broadcast when a frame leaves the loading state
	frames   []frame
	free     []segBufs
	scratch  [][]byte // pread buffers, one per concurrent load
	budget   int64
	resident int64 // decompressed bytes of resident and loading frames
	stats    Stats
	plan     *plan // the schedule of the Run that owns the tier, if any

	digestOnce sync.Once
	digest     string
	digestErr  error
}

// OpenBytes opens a container held in memory (tests, fuzzing, and
// network-received snapshots).
func OpenBytes(data []byte, opts Options) (*Store, error) {
	return open(&bytesSource{data: data}, opts)
}

// OpenFile opens a container file, mmap-backed where the platform
// supports it.
func OpenFile(path string, opts Options) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	src, err := openSource(f)
	if err != nil {
		return nil, err
	}
	st, err := open(src, opts)
	if err != nil {
		_ = src.Close()
		return nil, err
	}
	return st, nil
}

// open parses header, footer, and index, leaving every segment cold.
func open(src source, opts Options) (*Store, error) {
	sz := src.size()
	if sz < headerSize+footerSize+24 {
		return nil, fmt.Errorf("%w: %d bytes is too short", ErrBadContainer, sz)
	}
	hb, err := src.view(0, headerSize, nil)
	if err != nil {
		return nil, err
	}
	h, err := decodeHeader(hb)
	if err != nil {
		return nil, err
	}
	fb, err := src.view(sz-footerSize, footerSize, nil)
	if err != nil {
		return nil, err
	}
	if string(fb[8:16]) != footerMagic {
		return nil, fmt.Errorf("%w: footer magic %q", ErrBadContainer, fb[8:16])
	}
	indexLen := int64(uint64(fb[0]) | uint64(fb[1])<<8 | uint64(fb[2])<<16 | uint64(fb[3])<<24 |
		uint64(fb[4])<<32 | uint64(fb[5])<<40 | uint64(fb[6])<<48 | uint64(fb[7])<<56)
	if indexLen < 0 || indexLen > sz-headerSize-footerSize {
		return nil, fmt.Errorf("%w: index length %d outside container", ErrBadContainer, indexLen)
	}
	indexOff := sz - footerSize - indexLen
	ib, err := src.view(indexOff, indexLen, nil)
	if err != nil {
		return nil, err
	}
	ix, err := decodeIndex(ib, h, uint64(indexOff), h.weighted)
	if err != nil {
		return nil, err
	}
	st := &Store{
		src:      src,
		weighted: h.weighted,
		nonNeg:   ix.nonNeg,
		offsets:  ix.offsets,
		segs:     ix.segs,
		frames:   make([]frame, len(ix.segs)),
		budget:   opts.LocalBytes,
	}
	st.loaded.L = &st.mu
	for i := range st.frames {
		st.frames[i].next = noUse
		if e := int64(ix.segs[i].edges); e > st.maxSegEdges {
			st.maxSegEdges = e
		}
		if l := int64(ix.segs[i].len); l > st.maxSegBytes {
			st.maxSegBytes = l
		}
	}
	return st, nil
}

// NumVertices returns the container's vertex count.
func (s *Store) NumVertices() int { return len(s.offsets) - 1 }

// NumEdges returns the container's directed edge count.
func (s *Store) NumEdges() int64 { return s.offsets[len(s.offsets)-1] }

// Weighted reports whether the container carries edge weights.
func (s *Store) Weighted() bool { return s.weighted }

// NonNegativeWeights reports whether every stored weight is >= 0 — the
// write-time scan that replaces CheckGraph's O(E) pass for out-of-core
// runs (vacuously true for unweighted containers).
func (s *Store) NonNegativeWeights() bool { return s.nonNeg }

// NumSegments returns the segment count.
func (s *Store) NumSegments() int { return len(s.segs) }

// OutDegree returns vertex v's out-degree from the resident offsets.
func (s *Store) OutDegree(v graph.VertexID) int64 {
	return s.offsets[v+1] - s.offsets[v]
}

// VertexView returns an offsets-only graph.Graph over the container:
// kernel callbacks (InitialValue, Apply, InitialFrontier) consult only
// the vertex side, so the view lets them run unmodified while adjacency
// stays in the store.
func (s *Store) VertexView() (*graph.Graph, error) {
	return graph.NewVertexView(s.offsets)
}

// Stats returns a snapshot of the tier counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.stats
	out.ResidentBytes = s.resident
	return out
}

// segFor locates the segment containing v by binary search over the
// segment table (open-coded: Pin is the tier's hot path and must not
// allocate, closures included).
func (s *Store) segFor(v graph.VertexID) int32 {
	lo, hi := 0, len(s.segs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.segs[mid].first+s.segs[mid].count > uint64(v) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return int32(lo)
}

// Seg is a pinned segment handle: adjacency access for the vertices the
// segment covers. The zero Seg is invalid. Handles are value types; copy
// freely but Release exactly once per successful Pin.
type Seg struct {
	st    *Store
	idx   int32
	first graph.VertexID
	last  graph.VertexID // inclusive
	base  int64          // offsets[first]
	edges []graph.VertexID
	wts   []float32
}

// Contains reports whether the handle covers v.
func (sg Seg) Contains(v graph.VertexID) bool { return v >= sg.first && v <= sg.last }

// Neighbors returns v's sorted out-neighbors. v must be covered.
func (sg Seg) Neighbors(v graph.VertexID) []graph.VertexID {
	lo, hi := sg.st.offsets[v]-sg.base, sg.st.offsets[v+1]-sg.base
	return sg.edges[lo:hi]
}

// NeighborWeights returns the weights parallel to Neighbors(v), nil for
// an unweighted container.
func (sg Seg) NeighborWeights(v graph.VertexID) []float32 {
	if sg.wts == nil {
		return nil
	}
	lo, hi := sg.st.offsets[v]-sg.base, sg.st.offsets[v+1]-sg.base
	return sg.wts[lo:hi]
}

// Release unpins the segment; once its last pin drops the frame is a
// candidate for eviction. Releasing the zero Seg is a no-op so error
// paths can release unconditionally.
func (sg Seg) Release() {
	if sg.st == nil {
		return
	}
	sg.st.release(sg.idx)
}

// Pin loads (if necessary) and pins the segment covering v, returning a
// handle for its adjacency. Pinned segments never evict; the pair rule
// is the tier's correctness contract.
//
//lint:pair acquire=Pin release=Release
func (s *Store) Pin(v graph.VertexID) (Seg, error) {
	return s.pin(v, nil)
}

// pin is Pin for a schedule: a non-nil p is the caller's plan, whose next
// step this pin is. It advances the plan and hands the prefetcher the
// next cold segment the plan has room for.
func (s *Store) pin(v graph.VertexID, p *plan) (Seg, error) {
	if int64(v) >= int64(s.NumVertices()) {
		return Seg{}, fmt.Errorf("store: vertex %d outside container with %d vertices", v, s.NumVertices())
	}
	idx := s.segFor(v)
	if f, miss := s.acquire(idx, p); miss {
		edges, weights, err := s.decode(f)
		if err := s.complete(f, edges, weights, err); err != nil {
			return Seg{}, err
		}
	}
	// The pin keeps the frame resident, so its buffers are stable.
	fr := &s.frames[idx]
	m := &s.segs[idx]
	sg := Seg{
		st:    s,
		idx:   idx,
		first: graph.VertexID(m.first),
		last:  graph.VertexID(m.first + m.count - 1),
		base:  s.offsets[m.first],
		edges: fr.edges,
	}
	if s.weighted {
		sg.wts = fr.weights
	}
	return sg, nil
}

// acquire pins a resident frame (waiting out a load in flight) or, on a
// miss, makes room by the victim rule — overshooting the budget only
// when pins hold everything else — and reserves the frame for the
// caller to decode outside the lock.
func (s *Store) acquire(idx int32, p *plan) (fill, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p != nil {
		s.advance(p, idx)
		defer s.prefetchNext(p)
	}
	fr := &s.frames[idx]
	for fr.state == loading {
		s.loaded.Wait()
	}
	if fr.state == resident {
		s.stats.Hits++
		fr.refs++
		s.stats.Pins++
		return fill{}, false
	}
	s.makeRoom(s.segCost(idx), -1)
	return s.reserve(idx), true
}

// complete publishes a pin's own load and, on success, pins the frame.
func (s *Store) complete(f fill, edges []graph.VertexID, weights []float32, err error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.publish(f, edges, weights, err); err != nil {
		return err
	}
	s.frames[f.idx].refs++
	s.stats.Pins++
	return nil
}

// release drops one pin.
func (s *Store) release(idx int32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fr := &s.frames[idx]
	if fr.refs <= 0 || fr.state != resident {
		//lint:ignore panicpath unbalanced Release is a caller bug the pair rule exists to catch; corrupting the refcount silently would be worse
		panic(fmt.Sprintf("store: Release of segment %d without matching Pin", idx))
	}
	fr.refs--
	s.stats.Pins--
}

// segCost is the decompressed footprint of segment idx.
func (s *Store) segCost(idx int32) int64 {
	c := int64(s.segs[idx].edges) * 4
	if s.weighted {
		c += int64(s.segs[idx].edges) * 4
	}
	return c
}

// fill is one reserved load: the segment and the buffers its decode
// writes. Only the goroutine holding the fill touches them until
// publish.
type fill struct {
	idx     int32
	bufs    segBufs
	scratch []byte
}

// reserve marks a cold frame loading, charges its cost to the budget,
// and takes the buffers its decode will fill. Called with s.mu held;
// buffers come from the freelist when an eviction has donated a pair,
// so a warmed tier's miss path performs no allocation.
func (s *Store) reserve(idx int32) fill {
	s.frames[idx].state = loading
	s.resident += s.segCost(idx)
	if s.resident > s.stats.PeakResidentBytes {
		s.stats.PeakResidentBytes = s.resident
	}
	f := fill{idx: idx}
	if n := len(s.free); n > 0 {
		f.bufs = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		// Sized for the largest segment, so any segment fits any pair.
		f.bufs.edges = make([]graph.VertexID, 0, s.maxSegEdges)
		if s.weighted {
			f.bufs.weights = make([]float32, 0, s.maxSegEdges)
		}
	}
	if n := len(s.scratch); n > 0 {
		f.scratch = s.scratch[n-1]
		s.scratch = s.scratch[:n-1]
	} else {
		f.scratch = make([]byte, s.maxSegBytes)
	}
	return f
}

// decode reads, verifies, and decompresses a reserved segment in one
// pass over its payload. It runs without s.mu: the container index and
// offsets are immutable, and the fill's buffers are the caller's alone.
func (s *Store) decode(f fill) ([]graph.VertexID, []float32, error) {
	m := &s.segs[f.idx]
	payload, err := s.src.view(int64(m.off), int64(m.len), f.scratch)
	if err != nil {
		return nil, nil, err
	}
	if got := ieeeCRC(payload); got != m.crc {
		return nil, nil, fmt.Errorf("%w: segment %d checksum %08x, computed %08x", ErrCorrupt, f.idx, m.crc, got)
	}
	adjLen := int64(m.len)
	if s.weighted {
		adjLen -= int64(m.edges) * 4
	}
	adj := payload[:adjLen]
	edges := f.bufs.edges[:0]
	off := 0
	n := uint64(s.NumVertices())
	for v := m.first; v < m.first+m.count; v++ {
		count := int(s.offsets[v+1] - s.offsets[v])
		var consumed int
		edges, consumed, err = graph.DecodeCompressedAdjacency(edges, adj[off:], count, n)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: segment %d vertex %d: %v", ErrCorrupt, f.idx, v, err)
		}
		off += consumed
	}
	if int64(off) != adjLen {
		return nil, nil, fmt.Errorf("%w: segment %d: %d trailing adjacency bytes", ErrCorrupt, f.idx, adjLen-int64(off))
	}
	if !s.weighted {
		return edges, nil, nil
	}
	weights := f.bufs.weights[:m.edges]
	wb := payload[adjLen:]
	for i := range weights {
		weights[i] = float32frombytes(wb[i*4:])
	}
	return edges, weights, nil
}

// publish completes a reserved load under s.mu: on success the frame
// turns resident and the fetch is charged; on error the reservation and
// buffers go back. Either way pins waiting on the frame wake.
func (s *Store) publish(f fill, edges []graph.VertexID, weights []float32, err error) error {
	s.scratch = append(s.scratch, f.scratch)
	fr := &s.frames[f.idx]
	if err != nil {
		s.free = append(s.free, f.bufs)
		fr.state = cold
		s.resident -= s.segCost(f.idx)
	} else {
		fr.edges, fr.weights, fr.state = edges, weights, resident
		s.stats.Misses++
		s.stats.FarBytes += int64(s.segs[f.idx].len)
	}
	s.loaded.Broadcast()
	return err
}

// evict drops an unpinned resident frame, donating its buffers.
func (s *Store) evict(idx int32) {
	fr := &s.frames[idx]
	s.free = append(s.free, segBufs{edges: fr.edges, weights: fr.weights})
	fr.edges, fr.weights = nil, nil
	fr.state = cold
	s.resident -= s.segCost(idx)
	s.stats.Evictions++
}

// Digest returns the SHA-256 of the container bytes ("sha256:<hex>") —
// the content address ndpserve snapshots key on. Computed once, lazily.
func (s *Store) Digest() (string, error) {
	s.digestOnce.Do(func() {
		h := sha256.New()
		const chunk = 1 << 20
		scratch := make([]byte, chunk)
		sz := s.src.size()
		for off := int64(0); off < sz; off += chunk {
			n := int64(chunk)
			if off+n > sz {
				n = sz - off
			}
			p, err := s.src.view(off, n, scratch)
			if err != nil {
				s.digestErr = err
				return
			}
			_, _ = h.Write(p) // hash.Hash.Write never errors
		}
		s.digest = "sha256:" + hex.EncodeToString(h.Sum(nil))
	})
	return s.digest, s.digestErr
}

// Materialize decodes the full container into an in-memory graph — the
// bridge back to the in-RAM engines (and the equality oracle's other
// side). It bypasses the tier, so resident accounting is unaffected.
func (s *Store) Materialize() (*graph.Graph, error) {
	n := s.NumVertices()
	offsets := make([]int64, n+1)
	copy(offsets, s.offsets)
	edges := make([]graph.VertexID, 0, s.NumEdges())
	var weights []float32
	if s.weighted {
		weights = make([]float32, 0, s.NumEdges())
	}
	for i := range s.segs {
		sg, err := s.Pin(graph.VertexID(s.segs[i].first))
		if err != nil {
			return nil, err
		}
		edges = append(edges, sg.edges...)
		if s.weighted {
			weights = append(weights, sg.wts...)
		}
		sg.Release()
	}
	return graph.NewCSR(offsets, edges, weights)
}

// Close releases the source. It fails if pins are outstanding — a leak
// the lifecycle tests treat as a bug.
func (s *Store) Close() error {
	s.mu.Lock()
	pins := s.stats.Pins
	s.mu.Unlock()
	if pins != 0 {
		return fmt.Errorf("store: Close with %d outstanding segment pins", pins)
	}
	return s.src.Close()
}
