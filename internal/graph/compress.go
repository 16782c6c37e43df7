package graph

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Adjacency compression: sorted neighbor lists delta-encode extremely
// well (a vertex's neighbors cluster in id space on natural graphs), and
// the edge list dominates a graph's footprint — the asymmetry the paper's
// Figure 1 is built on. The codec stores each list as a varint first id
// followed by varint gaps. It backs the v2 binary container in package
// gio and the storage analysis in Stats.

// AppendCompressedAdjacency appends the varint-delta encoding of a sorted
// neighbor list to buf and returns the extended buffer.
func AppendCompressedAdjacency(buf []byte, neighbors []VertexID) []byte {
	prev := uint64(0)
	for i, n := range neighbors {
		v := uint64(n)
		if i == 0 {
			buf = binary.AppendUvarint(buf, v)
		} else {
			buf = binary.AppendUvarint(buf, v-prev)
		}
		prev = v
	}
	return buf
}

// DecodeCompressedAdjacency decodes count neighbors from buf, appending
// to dst, and returns the extended dst plus the bytes consumed. Every
// decoded id must be below limit (the graph's vertex count), so a caller
// gets its range check in the same pass. One-byte gaps — the common case
// on clustered adjacency — skip the general varint decoder.
func DecodeCompressedAdjacency(dst []VertexID, buf []byte, count int, limit uint64) ([]VertexID, int, error) {
	if count < 0 || count > len(buf) {
		// Every neighbor takes at least one byte; a larger count is a
		// truncation, and a negative one (degrees whose prefix sum
		// wrapped) is nonsense — both caught before sizing an allocation.
		return nil, 0, fmt.Errorf("graph: compressed adjacency of %d neighbors in %d bytes", count, len(buf))
	}
	base := len(dst)
	dst = slices.Grow(dst, count)[:base+count]
	out := dst[base:]
	off := 0
	prev := uint64(0)
	for i := range out {
		var v uint64
		if off < len(buf) && buf[off] < 0x80 {
			v = uint64(buf[off])
			off++
		} else {
			x, n := binary.Uvarint(buf[off:])
			if n <= 0 {
				return nil, 0, fmt.Errorf("graph: truncated compressed adjacency at neighbor %d", i)
			}
			v = x
			off += n
		}
		// The first id is absolute and prev is 0, so one check covers
		// both; testing before the add keeps a forged gap from wrapping.
		if v > 0xFFFFFFFF-prev {
			return nil, 0, fmt.Errorf("graph: compressed neighbor %d overflows vertex id range", i)
		}
		v += prev
		if v >= limit {
			return nil, 0, fmt.Errorf("graph: compressed neighbor %d is %d, out of range [0,%d)", i, v, limit)
		}
		out[i] = VertexID(v)
		prev = v
	}
	return dst, off, nil
}

// CompressedEdgeBytes returns the size of the graph's edge lists under
// varint-delta compression (offsets and weights excluded) — the figure to
// compare against NumEdges()*4 raw bytes.
func CompressedEdgeBytes(g *Graph) int64 {
	var total int64
	var scratch [binary.MaxVarintLen64]byte
	for v := 0; v < g.NumVertices(); v++ {
		prev := uint64(0)
		for i, n := range g.Neighbors(VertexID(v)) {
			x := uint64(n)
			d := x
			if i > 0 {
				d = x - prev
			}
			total += int64(binary.PutUvarint(scratch[:], d))
			prev = x
		}
	}
	return total
}
