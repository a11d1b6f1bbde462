// Package fingerprint computes the content-addressed key of one loop's
// dynamic-stage analysis: a canonical 128-bit structural fingerprint over
// every input that can influence the verdict, and nothing else. It extends
// the injective token-walk construction of internal/dcart's snapshot digest
// (two decorrelated 64-bit hash lanes fed length-delimited tokens) from
// heap value graphs to analysis inputs.
//
// # What is in the key
//
//   - The whole program IR, structurally (function signatures, locals,
//     blocks, instructions, struct layouts). The dynamic stage executes the
//     entire program — the golden run and every replay — so a change in any
//     function can change how often the loop runs, the values its payload
//     sees, and therefore the verdict. Per-loop keys that covered only the
//     loop body would be unsound.
//   - The target loop (function name + loop index).
//   - The static stage's outputs for the loop: the outlined payload IR, the
//     iterator value slice, the environment (live-in/loop-carried) fields,
//     and the live-out set rt_verify snapshots. These are derivable from
//     the program walk, but hashing them directly anchors the invalidation
//     contract: any change to what the dynamic stage replays or verifies
//     changes the key.
//   - The schedule set (count and per-schedule identity, including random
//     seeds) — the evidence the verdict rests on.
//   - The sandbox limits (steps, heap, output, wall clock), the retry
//     budget, and the snapshot-debugging mode: they decide whether a run
//     degrades to ResourceExhausted and how divergence reasons render.
//
// # What is not in the key
//
// Source positions, file names, comments, and formatting — the walk reads
// the IR's structural serialization, which carries none of them — and every
// knob that cannot reach a verdict (worker counts, executor choice, cache
// configuration, output format).
//
// Version is hashed into every key, so a change to the walk itself
// invalidates all previously stored fingerprints.
package fingerprint

import (
	"fmt"
	"math/bits"

	"dca/internal/dcart"
	"dca/internal/instrument"
	"dca/internal/ir"
	"dca/internal/sandbox"
)

// Version is the fingerprint schema version. Bump it whenever the token
// walk changes (new tokens, reordered fields, different serialization) or
// a knob's meaning changes under the same token, so stale keys can never
// alias fresh ones. Version 4: NoFootprint also gates the decisions from
// the reference run (coverage included), which changed the evidence behind
// default-configuration verdicts.
const Version = 4

// Key is a 128-bit loop-analysis fingerprint.
type Key struct{ Hi, Lo uint64 }

// String renders the key as 32 hex digits — the form used as a cache key
// and an on-disk shard/file name.
func (k Key) String() string { return fmt.Sprintf("%016x%016x", k.Hi, k.Lo) }

// Inputs bundles the dynamic-stage configuration that participates in a
// loop's fingerprint.
type Inputs struct {
	// Schedules is the permutation set the verdict is tested against.
	Schedules []dcart.Schedule
	// Limits are the per-execution sandbox budgets.
	Limits sandbox.Limits
	// Retries is the doubled-budget retry count for budget/timeout traps.
	Retries int
	// DebugSnapshots selects the string-snapshot mode, which changes how
	// live-out divergence reasons are rendered.
	DebugSnapshots bool
	// StopAfter is the sequential stopping rule (0 = off): it bounds which
	// schedules are actually tested, so it can reach the verdict.
	StopAfter int
	// NoFootprint turns off the decisions from the reference run, which
	// otherwise decide whether the golden run and the replays run at all
	// (and the verdict's provenance).
	NoFootprint bool
	// NoProve disables the static commutativity prover, which otherwise
	// decides whether the dynamic stage runs at all (and the verdict's
	// provenance).
	NoProve bool
}

// Token tags. Every composite token is count- or length-prefixed, so the
// stream is injective: no two distinct walks produce the same token
// sequence.
const (
	tagVersion = iota + 1
	tagProgram
	tagStruct
	tagFunc
	tagParam
	tagResult
	tagLocal
	tagBlock
	tagInstr
	tagTerm
	tagTarget
	tagPayload
	tagIter
	tagEnv
	tagLiveOut
	tagSchedule
	tagLimits
	tagEnd
	// tagRun sits after tagEnd so introducing the run-level fingerprint did
	// not renumber the loop-key tags (which would have invalidated every
	// stored loop key without a Version bump).
	tagRun
	// tagRoute keys the fleet's dispatch routing (Router): a cheap
	// program+target fingerprint with no static-stage or schedule sections.
	// Like tagRun it sits past tagEnd so it cannot alias the loop-key walk.
	tagRoute
)

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
	mixSeed   = 0x9e3779b97f4a7c15 // golden-ratio increment (splitmix64)
	mixPrime  = 0xff51afd7ed558ccd // fmix64 multiplier (murmur3)
)

// hasher streams 64-bit words into two independently-mixed lanes — the same
// construction as dcart's snapshot digest: lane lo is FNV-1a, lane hi is a
// rotate-multiply over a premixed word.
type hasher struct{ hi, lo uint64 }

func newHasher() hasher { return hasher{hi: mixSeed, lo: fnvOffset} }

func (h *hasher) word(x uint64) {
	h.lo = (h.lo ^ x) * fnvPrime
	h.hi = bits.RotateLeft64(h.hi^(x*mixPrime), 31) * mixSeed
}

// str hashes a length-prefixed string, eight bytes per word.
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

// fn walks one function structurally: signature, locals, and every block's
// instructions and terminator in their canonical printed form. The printed
// form carries no source positions, so reformatting a source file leaves
// the walk unchanged.
func (h *hasher) fn(f *ir.Func) {
	h.word(tagFunc)
	h.str(f.Name)
	h.word(uint64(len(f.Params)))
	for _, p := range f.Params {
		h.word(tagParam)
		h.str(p.Name)
		h.str(p.Type.String())
	}
	h.word(tagResult)
	if f.Result != nil {
		h.str(f.Result.String())
	} else {
		h.str("")
	}
	h.word(uint64(len(f.Locals)))
	for _, l := range f.Locals {
		h.word(tagLocal)
		h.str(l.Name)
		h.str(l.Type.String())
	}
	h.word(uint64(len(f.Blocks)))
	for _, b := range f.Blocks {
		h.word(tagBlock)
		h.str(b.Name)
		h.word(uint64(len(b.Instrs)))
		for _, in := range b.Instrs {
			h.word(tagInstr)
			h.str(in.String())
		}
		h.word(tagTerm)
		if b.Term != nil {
			h.str(b.Term.String())
		} else {
			h.str("")
		}
	}
	h.word(tagEnd)
}

// program walks every function and struct layout of a program.
func (h *hasher) program(p *ir.Program) {
	h.word(tagProgram)
	h.word(uint64(len(p.Funcs)))
	for _, f := range p.Funcs {
		h.fn(f)
	}
	// Struct layouts in sorted-name order: field names and types decide
	// load/store semantics and snapshot shapes.
	names := make([]string, 0, len(p.Structs))
	for name := range p.Structs {
		names = append(names, name)
	}
	sortStrings(names)
	h.word(uint64(len(names)))
	for _, name := range names {
		si := p.Structs[name]
		h.word(tagStruct)
		h.str(name)
		h.word(uint64(len(si.Fields)))
		for _, fld := range si.Fields {
			h.str(fld.Name)
			h.str(fld.Type.String())
		}
	}
	h.word(tagEnd)
}

// sortStrings is an allocation-free insertion sort; struct maps are small.
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Loop fingerprints one loop analysis: the program under test, the target
// loop, its static-stage outputs, and the dynamic-stage configuration.
// Equal keys mean the dynamic stage would run byte-identically; any change
// to an input that can reach the verdict yields a different key (up to hash
// collisions, ~2^-128 for non-adversarial inputs).
func Loop(prog *ir.Program, fnName string, loopIndex int, inst *instrument.Instrumented, in Inputs) Key {
	h := newHasher()
	h.word(tagVersion)
	h.word(Version)

	h.program(prog)

	h.word(tagTarget)
	h.str(fnName)
	h.word(uint64(loopIndex))

	// Static-stage outputs: the outlined payload the replays execute, the
	// iterator slice it consumes, the environment it shares, and the
	// live-out roots rt_verify snapshots.
	h.word(tagPayload)
	h.fn(inst.Payload.Payload)
	h.word(tagIter)
	h.word(uint64(len(inst.Payload.IterParams)))
	for _, p := range inst.Payload.IterParams {
		h.str(p.Name)
		h.str(p.Type.String())
	}
	h.word(tagEnv)
	h.word(uint64(len(inst.Payload.EnvType.Fields)))
	for _, fld := range inst.Payload.EnvType.Fields {
		h.str(fld.Name)
		h.str(fld.Type.String())
	}
	h.word(tagLiveOut)
	h.word(uint64(len(inst.LiveOut)))
	for _, l := range inst.LiveOut {
		h.str(l.Name)
		h.str(l.Type.String())
	}

	h.word(tagSchedule)
	h.word(uint64(len(in.Schedules)))
	for _, s := range in.Schedules {
		h.str(s.Name())
	}

	h.word(tagLimits)
	h.word(uint64(in.Limits.MaxSteps))
	h.word(uint64(in.Limits.MaxHeapObjects))
	h.word(uint64(in.Limits.MaxOutput))
	h.word(uint64(in.Limits.Timeout))
	h.word(uint64(in.Retries))
	if in.DebugSnapshots {
		h.word(1)
	} else {
		h.word(0)
	}
	h.word(uint64(in.StopAfter))
	if in.NoFootprint {
		h.word(1)
	} else {
		h.word(0)
	}
	if in.NoProve {
		h.word(1)
	} else {
		h.word(0)
	}
	h.word(tagEnd)
	return Key{Hi: h.hi, Lo: h.lo}
}

// Router issues per-loop routing keys for the analysis fleet: stable
// identifiers the coordinator hashes onto its consistent-hash ring to pick
// each loop's worker. A routing key covers the whole program and the target
// loop — everything that identifies "this loop of this program" — but none
// of the static-stage outputs or dynamic-stage knobs a cache key needs,
// because the coordinator routes before any static stage has run. The
// program walk is hashed once at construction; Route then costs two words
// per loop, so routing a thousand-loop program is O(program + loops), not
// O(program × loops).
//
// Routing keys and cache keys live in different namespaces (tagRoute vs the
// loop-key walk) and are never stored: equal routing keys only ever mean
// "same ring owner".
type Router struct{ base hasher }

// NewRouter hashes prog's structural walk once, ready to issue Route keys.
func NewRouter(prog *ir.Program) *Router {
	h := newHasher()
	h.word(tagVersion)
	h.word(Version)
	h.word(tagRoute)
	h.program(prog)
	return &Router{base: h}
}

// Route returns the routing key for one loop of the program. The base
// hasher is copied by value, so a Router is safe for concurrent use.
func (r *Router) Route(fnName string, loopIndex int) Key {
	h := r.base
	h.word(tagTarget)
	h.str(fnName)
	h.word(uint64(loopIndex))
	h.word(tagEnd)
	return Key{Hi: h.hi, Lo: h.lo}
}

// Run fingerprints a whole analysis run: the program under test plus the
// verdict-reaching configuration, without any per-loop sections. It keys
// the write-ahead run journal — two runs with equal keys analyze the same
// loops under the same configuration, so journaled verdicts from one are
// valid answers in the other. Knobs that cannot change a verdict (worker
// count, executor choice, cache configuration) are deliberately absent, so
// a resume may change them freely.
func Run(prog *ir.Program, in Inputs) Key {
	h := newHasher()
	h.word(tagVersion)
	h.word(Version)
	h.word(tagRun)

	h.program(prog)

	h.word(tagSchedule)
	h.word(uint64(len(in.Schedules)))
	for _, s := range in.Schedules {
		h.str(s.Name())
	}

	h.word(tagLimits)
	h.word(uint64(in.Limits.MaxSteps))
	h.word(uint64(in.Limits.MaxHeapObjects))
	h.word(uint64(in.Limits.MaxOutput))
	h.word(uint64(in.Limits.Timeout))
	h.word(uint64(in.Retries))
	if in.DebugSnapshots {
		h.word(1)
	} else {
		h.word(0)
	}
	h.word(uint64(in.StopAfter))
	if in.NoFootprint {
		h.word(1)
	} else {
		h.word(0)
	}
	if in.NoProve {
		h.word(1)
	} else {
		h.word(0)
	}
	h.word(tagEnd)
	return Key{Hi: h.hi, Lo: h.lo}
}
