package dcart

import (
	"fmt"
	"math/bits"

	"dca/internal/ir"
)

// Digest is a 128-bit structural digest of a live-out snapshot. It replaces
// the O(heap) string materialization of Snapshot on the dynamic stage's hot
// path: the value graph is streamed token-by-token into two decorrelated
// 64-bit hash lanes, so a golden run holding thousands of invocations keeps
// 16 bytes per snapshot instead of a serialized heap copy.
//
// Equivalence contract: two snapshots have equal Digests iff their Snapshot
// strings are equal, up to hash collisions (~2^-128 for non-adversarial
// inputs). The token stream mirrors the string serialization exactly —
// identity-insensitive traversal-order numbering, cycle back-references,
// the nil-kind/nil-ref conflation, and a single NaN class (all NaN bit
// patterns print as "NaN" in string mode, so they digest alike too). For
// mismatch diagnosis the string mode is retained behind
// Runtime.DebugSnapshots.
type Digest struct{ Hi, Lo uint64 }

func (d Digest) String() string { return fmt.Sprintf("%016x%016x", d.Hi, d.Lo) }

// Token tags. Values share the tag space with nothing else; every composite
// token is length- or end-delimited, so the stream is injective.
const (
	tagNil = iota + 1
	tagInt
	tagBool
	tagFloat
	tagNaN
	tagStr
	tagObj
	tagBackref
	tagEnd
)

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
	mixSeed   = 0x9e3779b97f4a7c15 // golden-ratio increment (splitmix64)
	mixPrime  = 0xff51afd7ed558ccd // fmix64 multiplier (murmur3)
)

// hasher streams 64-bit words into two independently-mixed lanes: lane lo
// is FNV-1a, lane hi is a rotate-multiply over a premixed word.
type hasher struct{ hi, lo uint64 }

func newHasher() hasher { return hasher{hi: mixSeed, lo: fnvOffset} }

func (h *hasher) word(x uint64) {
	h.lo = (h.lo ^ x) * fnvPrime
	h.hi = bits.RotateLeft64(h.hi^(x*mixPrime), 31) * mixSeed
}

// str hashes a length-prefixed string, eight bytes per word; the prefix
// makes the zero-padding of the final chunk unambiguous.
func (h *hasher) str(s string) {
	h.word(uint64(len(s)))
	for len(s) >= 8 {
		h.word(uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56)
		s = s[8:]
	}
	if len(s) > 0 {
		var last uint64
		for i := 0; i < len(s); i++ {
			last |= uint64(s[i]) << (8 * uint(i))
		}
		h.word(last)
	}
}

// SnapshotDigest produces the canonical, identity-insensitive digest of the
// value graph reachable from roots, without materializing it: scalars by
// value, heap objects structurally with traversal-order numbering, cycles
// via back-references — the streaming counterpart of Snapshot.
func SnapshotDigest(roots []ir.Value) Digest {
	h := newHasher()
	var ids map[*ir.Object]int
	var visit func(v ir.Value)
	visit = func(v ir.Value) {
		switch v.Kind {
		case ir.KindNil:
			h.word(tagNil)
		case ir.KindInt:
			h.word(tagInt)
			h.word(uint64(v.I))
		case ir.KindBool:
			h.word(tagBool)
			h.word(uint64(v.I) & 1)
		case ir.KindFloat:
			if f := v.Float(); f != f {
				// All NaN payloads serialize as "NaN" in string mode.
				h.word(tagNaN)
				return
			}
			h.word(tagFloat)
			h.word(uint64(v.I))
		case ir.KindString:
			h.word(tagStr)
			h.str(v.Str())
		case ir.KindRef:
			if v.Ref == nil {
				// String mode conflates nil-kind and nil-ref ("nil;").
				h.word(tagNil)
				return
			}
			if id, ok := ids[v.Ref]; ok {
				h.word(tagBackref)
				h.word(uint64(id))
				return
			}
			if ids == nil {
				ids = make(map[*ir.Object]int, 16)
			}
			id := len(ids)
			ids[v.Ref] = id
			h.word(tagObj)
			h.word(uint64(id))
			h.str(v.Ref.TypeName)
			for _, e := range v.Ref.Elems {
				visit(e)
			}
			h.word(tagEnd)
		}
	}
	for _, r := range roots {
		visit(r)
	}
	return Digest{Hi: h.hi, Lo: h.lo}
}
