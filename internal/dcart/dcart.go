// Package dcart is the DCA runtime library (§IV-B): it services the rt_*
// intrinsics that the instrumentation pass inserts, records iterator values
// (iterator recording), applies permutation schedules (DCA execution), and
// takes canonical live-out snapshots (live-out verification).
package dcart

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"dca/internal/instrument"
	"dca/internal/interp"
	"dca/internal/ir"
)

// Schedule decides the replay order of n recorded iterations.
type Schedule interface {
	Name() string
	// Permute returns a permutation of [0,n).
	Permute(n int) []int
}

// Identity replays iterations in original order (the golden reference).
type Identity struct{}

// Name implements Schedule.
func (Identity) Name() string { return "identity" }

// Permute implements Schedule.
func (Identity) Permute(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// Reverse replays iterations back to front.
type Reverse struct{}

// Name implements Schedule.
func (Reverse) Name() string { return "reverse" }

// Permute implements Schedule.
func (Reverse) Permute(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = n - 1 - i
	}
	return p
}

// Random replays iterations in a seeded pseudo-random shuffle; distinct
// seeds give the paper's "configurable number of random shuffles".
type Random struct{ Seed int64 }

// Name implements Schedule.
func (s Random) Name() string { return fmt.Sprintf("random(%d)", s.Seed) }

// Permute implements Schedule.
func (s Random) Permute(n int) []int {
	r := rand.New(rand.NewSource(s.Seed))
	return r.Perm(n)
}

// Rotate replays iterations shifted by one (a cheap adjacent-exchange
// schedule useful in ablations).
type Rotate struct{}

// Name implements Schedule.
func (Rotate) Name() string { return "rotate" }

// Permute implements Schedule.
func (Rotate) Permute(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = (i + 1) % n
	}
	return p
}

// DefaultSchedules is the paper-default test set: reverse plus three random
// shuffles.
func DefaultSchedules() []Schedule {
	return []Schedule{Reverse{}, Random{Seed: 1}, Random{Seed: 2}, Random{Seed: 3}}
}

// Runtime implements interp.Runtime for one execution of an instrumented
// program. It accumulates one snapshot per loop invocation.
type Runtime struct {
	Schedule Schedule
	// TrackContexts records each invocation's calling context (the chain
	// of function names on the stack) alongside its snapshot, enabling the
	// context-sensitive analysis of core.AnalyzeLoopContexts — the paper's
	// §IV-E future-work extension.
	TrackContexts bool
	// OnlyContext, when non-empty, applies the schedule only to invocations
	// whose calling context matches; every other invocation replays in
	// original order. This isolates one context's permutation effects so
	// they can be attributed precisely.
	OnlyContext string

	records [][]ir.Value
	order   []int
	cursor  int
	driving bool

	// DebugSnapshots additionally materializes the full string serialization
	// of every snapshot into SnapshotStrings, for mismatch diagnosis. Off by
	// default: the digest alone decides equality on the hot path.
	DebugSnapshots bool

	// Snapshots holds one canonical live-out digest per completed loop
	// invocation, in completion order; Contexts (when tracked) holds the
	// matching calling contexts. SnapshotStrings mirrors Snapshots with the
	// string serialization when DebugSnapshots is set.
	Snapshots       []Digest
	SnapshotStrings []string
	Contexts        []string
	// Invocations counts completed loop invocations; Iterations counts
	// replayed payload iterations.
	Invocations int
	Iterations  int64
}

// NewRuntime creates a runtime applying the given schedule.
func NewRuntime(s Schedule) *Runtime { return &Runtime{Schedule: s} }

var _ interp.Runtime = (*Runtime)(nil)

// Intrinsic implements interp.Runtime.
func (rt *Runtime) Intrinsic(_ interp.Env, fr *interp.Frame, name string, args []ir.Value) (ir.Value, error) {
	switch name {
	case instrument.RTLinearize:
		if rt.driving {
			return ir.Value{}, errors.New("dcart: nested loop invocation during replay (re-entrant test loop)")
		}
		tup := make([]ir.Value, len(args))
		copy(tup, args)
		rt.records = append(rt.records, tup)
		return ir.Value{}, nil
	case instrument.RTPermute:
		if rt.driving {
			return ir.Value{}, errors.New("dcart: rt_iterator_permute while already replaying")
		}
		if rt.OnlyContext != "" && ContextOf(fr) != rt.OnlyContext {
			rt.order = Identity{}.Permute(len(rt.records))
		} else {
			rt.order = rt.Schedule.Permute(len(rt.records))
		}
		rt.cursor = -1
		rt.driving = true
		return ir.Value{}, nil
	case instrument.RTNext:
		if !rt.driving {
			return ir.Value{}, errors.New("dcart: rt_iterator_next outside replay")
		}
		rt.cursor++
		if rt.cursor < len(rt.order) {
			rt.Iterations++
			return ir.BoolVal(true), nil
		}
		return ir.BoolVal(false), nil
	case instrument.RTGet:
		if !rt.driving || rt.cursor < 0 || rt.cursor >= len(rt.order) {
			return ir.Value{}, errors.New("dcart: rt_iterator_get outside an iteration")
		}
		k := int(args[0].I)
		tup := rt.records[rt.order[rt.cursor]]
		if k < 0 || k >= len(tup) {
			return ir.Value{}, fmt.Errorf("dcart: iterator value index %d out of range", k)
		}
		return tup[k], nil
	case instrument.RTVerify:
		if !rt.driving {
			return ir.Value{}, errors.New("dcart: rt_verify outside an invocation")
		}
		rt.Snapshots = append(rt.Snapshots, SnapshotDigest(args))
		if rt.DebugSnapshots {
			rt.SnapshotStrings = append(rt.SnapshotStrings, Snapshot(args))
		}
		if rt.TrackContexts {
			rt.Contexts = append(rt.Contexts, ContextOf(fr))
		}
		rt.records = rt.records[:0]
		rt.order = nil
		rt.driving = false
		rt.Invocations++
		return ir.Value{}, nil
	}
	return ir.Value{}, fmt.Errorf("dcart: unknown intrinsic %q", name)
}

// ContextOf renders a frame's calling context as the chain of function
// names from the program entry down to the frame.
func ContextOf(fr *interp.Frame) string {
	var parts []string
	for f := fr; f != nil; f = f.Parent {
		parts = append(parts, f.Fn.Name)
	}
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return strings.Join(parts, ">")
}

// Snapshot produces a canonical, identity-insensitive serialization of the
// value graph reachable from roots. Two states are considered equal live-out
// observations iff their snapshots are string-equal: scalars by value, heap
// objects structurally with traversal-order numbering (so object addresses
// and allocation order do not leak in), cycles via back-references.
func Snapshot(roots []ir.Value) string {
	buf := make([]byte, 0, 64)
	ids := map[*ir.Object]int{}
	var visit func(v ir.Value)
	visit = func(v ir.Value) {
		switch v.Kind {
		case ir.KindNil:
			buf = append(buf, "nil;"...)
		case ir.KindInt:
			buf = append(buf, 'i')
			buf = strconv.AppendInt(buf, v.I, 10)
			buf = append(buf, ';')
		case ir.KindBool:
			if v.I != 0 {
				buf = append(buf, "bT;"...)
			} else {
				buf = append(buf, "bF;"...)
			}
		case ir.KindFloat:
			buf = append(buf, 'f')
			buf = appendG(buf, v.Float())
			buf = append(buf, ';')
		case ir.KindString:
			buf = append(buf, 's')
			buf = strconv.AppendQuote(buf, v.Str())
			buf = append(buf, ';')
		case ir.KindRef:
			if v.Ref == nil {
				buf = append(buf, "nil;"...)
				return
			}
			if id, ok := ids[v.Ref]; ok {
				buf = append(buf, '^')
				buf = strconv.AppendInt(buf, int64(id), 10)
				buf = append(buf, ';')
				return
			}
			id := len(ids)
			ids[v.Ref] = id
			buf = append(buf, 'o')
			buf = strconv.AppendInt(buf, int64(id), 10)
			buf = append(buf, ':')
			buf = append(buf, v.Ref.TypeName...)
			buf = append(buf, '[')
			for _, e := range v.Ref.Elems {
				visit(e)
			}
			buf = append(buf, "];"...)
		}
	}
	for _, r := range roots {
		visit(r)
	}
	return string(buf)
}

// appendG appends f formatted exactly as fmt's %g verb does (shortest
// representation, exponent for large/small magnitudes).
func appendG(buf []byte, f float64) []byte {
	return strconv.AppendFloat(buf, f, 'g', -1, 64)
}
