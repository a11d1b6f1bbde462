// Linked-list example: walks the full DCA pipeline by hand on a PLDS map
// loop — iterator/payload separation, outlining, instrumentation, the
// golden and permuted runs — and then actually executes the payload in
// parallel with goroutine workers, checking the result against the
// sequential run.
package main

import (
	"fmt"
	"log"
	"strings"

	"dca/internal/dcart"
	"dca/internal/instrument"
	"dca/internal/interp"
	"dca/internal/ir"
	"dca/internal/irbuild"
	"dca/internal/parallel"
	"dca/internal/sandbox"
)

const src = `
struct Node { val int; next *Node; }
func main() {
	var head *Node = nil;
	for (var i int = 0; i < 2000; i++) {
		var n *Node = new Node;
		n->val = i;
		n->next = head;
		head = n;
	}
	// The loop under study: a map over the list.
	var p *Node = head;
	while (p != nil) {
		p->val = p->val * 3 + 1;
		p = p->next;
	}
	var s int = 0;
	p = head;
	while (p != nil) { s += p->val; p = p->next; }
	print(s);
}
`

func main() {
	prog, err := irbuild.Compile("list.mc", src)
	if err != nil {
		log.Fatal(err)
	}

	// --- Static stage: iterator/payload separation of the map loop. ---
	s, err := instrument.Separate(prog, "main", 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("analyzing %s\n\n", s.LoopID)
	sep := s.Sep
	var iters []string
	for in := range sep.IterInstrs {
		iters = append(iters, fmt.Sprint(in))
	}
	fmt.Printf("iterator slice (%d instructions): %s\n", len(sep.IterInstrs), strings.Join(iters, "; "))
	fmt.Printf("payload: %d instructions, iterator values consumed: %d, env fields: %d\n\n",
		sep.PayloadInstrCount, len(sep.IterLocals), len(sep.EnvLocals))

	// --- Instrumentation + dynamic stage. ---
	inst, err := instrument.Build(prog, s)
	if err != nil {
		log.Fatal(err)
	}
	golden := dcart.NewRuntime(dcart.Identity{})
	goldenOut := run(inst.Prog, golden)
	perm := dcart.NewRuntime(dcart.Reverse{})
	permOut := run(inst.Prog, perm)
	same := golden.Snapshots[0] == perm.Snapshots[0] && goldenOut == permOut
	fmt.Printf("golden vs reversed execution: live-outs identical = %v -> commutative\n\n", same)

	// --- Exploitation: run the payload in parallel for real. ---
	seqOut := run(prog, nil)
	var parOut strings.Builder
	res, err := parallel.RunLoop(inst, parallel.Options{Workers: 8, Out: &parOut})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parallel execution over %d workers: %d iterations\n", res.Workers, res.Iterations)
	fmt.Printf("sequential output: %sparallel output:   %s", seqOut, parOut.String())
	if seqOut == parOut.String() {
		fmt.Println("results match.")
	} else {
		fmt.Println("MISMATCH — this would be a bug.")
	}
}

// run executes prog in the sandbox with rt servicing its intrinsics and
// returns what it printed.
func run(prog *ir.Program, rt interp.Runtime) string {
	var out strings.Builder
	if oc := sandbox.Run(nil, prog, interp.Config{Out: &out, Runtime: rt}, sandbox.Limits{}, nil); !oc.OK() {
		log.Fatal(oc.Trap)
	}
	return out.String()
}
