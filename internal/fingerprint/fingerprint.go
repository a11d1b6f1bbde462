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
//   - The loop's separation: the iterator locals whose values the
//     linearized loop records, the environment locals the payload shares
//     across iterations, and the live-out roots rt_verify snapshots (each
//     by name and type). The key is computed before any instrumented
//     program exists, so it does not hash the outlined payload: the
//     program walk, the loop and the code version determine it. A change
//     to separation, outlining or rewriting that can change what the
//     dynamic stage replays or verifies must therefore bump Version.
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
// knob that cannot reach a verdict (worker counts, cache configuration,
// output format).
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
// alias fresh ones — and whenever separation, outlining or rewriting
// changes what the dynamic stage executes, since the key hashes the
// separation, not the instrumented program. Version 5: the key hashes the
// separation's iterator, environment and live-out locals instead of the
// outlined payload.
const Version = 5

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

// prefixKey keys the memoized program walk in ir.Program.Memo.
type prefixKey struct{}

// programPrefix returns the hasher state every loop key of prog starts
// from: the version word and the whole-program walk. The walk is the bulk
// of a loop key's cost and the same for every loop, so it runs once per
// program and each key extends a copy of the memoized state.
func programPrefix(prog *ir.Program) hasher {
	return prog.Memo(prefixKey{}, func() any {
		h := newHasher()
		h.word(tagVersion)
		h.word(Version)
		h.program(prog)
		return h
	}).(hasher)
}

// Separated fingerprints one loop analysis: the program under test, the
// target loop, its separation s (instrument.Separate), and the
// dynamic-stage configuration. Equal keys mean the dynamic stage would run
// byte-identically; any change to an input that can reach the verdict
// yields a different key (up to hash collisions, ~2^-128 for
// non-adversarial inputs). The program walk is memoized on prog, so prog
// must not be mutated between calls.
func Separated(prog *ir.Program, fnName string, loopIndex int, s *instrument.Separated, in Inputs) Key {
	h := programPrefix(prog)

	h.word(tagTarget)
	h.str(fnName)
	h.word(uint64(loopIndex))

	// The separation: the iterator values the payload consumes, the
	// environment it shares, and the live-out roots rt_verify snapshots.
	h.word(tagIter)
	h.locals(s.Sep.IterLocals)
	h.word(tagEnv)
	h.locals(s.Sep.EnvLocals)
	h.word(tagLiveOut)
	h.locals(s.LiveOut)

	h.word(tagSchedule)
	h.word(uint64(len(in.Schedules)))
	for _, sched := range in.Schedules {
		h.str(sched.Name())
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

// Loop is Separated for an instrumented loop: inst's separation, mapped
// onto the clone, names the same locals as the program's own, so the key is
// the one the analysis computes before it builds inst.
func Loop(prog *ir.Program, fnName string, loopIndex int, inst *instrument.Instrumented, in Inputs) Key {
	return Separated(prog, fnName, loopIndex, &inst.Separated, in)
}

// locals hashes a count-prefixed list of locals by name and type.
func (h *hasher) locals(ls []*ir.Local) {
	h.word(uint64(len(ls)))
	for _, l := range ls {
		h.str(l.Name)
		h.str(l.Type.String())
	}
}

// Run fingerprints a whole analysis run: the program under test plus the
// verdict-reaching configuration, without any per-loop sections. Two runs
// with equal keys analyze the same loops under the same configuration. It
// names async server runs and serves as the fuzz corpus's program key when
// no loop separates. Knobs that cannot change a verdict (worker count,
// cache configuration) are deliberately absent.
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
