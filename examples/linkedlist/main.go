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

	"dca/internal/cfg"
	"dca/internal/dataflow"
	"dca/internal/dcart"
	"dca/internal/instrument"
	"dca/internal/interp"
	"dca/internal/irbuild"
	"dca/internal/iterrec"
	"dca/internal/parallel"
	"dca/internal/pointer"
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
	fn := prog.Func("main")
	g, loops := cfg.LoopsOf(fn)
	loop := loops[1] // the map loop
	fmt.Printf("analyzing %s\n\n", loop.ID())

	// --- Static stage: iterator/payload separation. ---
	sep := iterrec.Separate(g, cfg.ComputePostDom(g), loop, pointer.Of(prog), dataflow.ComputeLiveness(g))
	if !sep.OK {
		log.Fatalf("not separable: %s", sep.Reason)
	}
	var iters []string
	for in := range sep.IterInstrs {
		iters = append(iters, fmt.Sprint(in))
	}
	fmt.Printf("iterator slice (%d instructions): %s\n", len(sep.IterInstrs), strings.Join(iters, "; "))
	fmt.Printf("payload: %d instructions, iterator values consumed: %d, env fields: %d\n\n",
		sep.PayloadInstrCount, len(sep.IterLocals), len(sep.EnvLocals))

	// --- Instrumentation + dynamic stage. ---
	inst, err := instrument.Loop(prog, "main", loop.Index)
	if err != nil {
		log.Fatal(err)
	}
	var goldenOut, permOut strings.Builder
	golden := dcart.NewRuntime(dcart.Identity{})
	if _, err := interp.Run(inst.Prog, interp.Config{Out: &goldenOut, Runtime: golden}); err != nil {
		log.Fatal(err)
	}
	perm := dcart.NewRuntime(dcart.Reverse{})
	if _, err := interp.Run(inst.Prog, interp.Config{Out: &permOut, Runtime: perm}); err != nil {
		log.Fatal(err)
	}
	same := golden.Snapshots[0] == perm.Snapshots[0] && goldenOut.String() == permOut.String()
	fmt.Printf("golden vs reversed execution: live-outs identical = %v -> commutative\n\n", same)

	// --- Exploitation: run the payload in parallel for real. ---
	var seqOut strings.Builder
	if _, err := interp.Run(prog, interp.Config{Out: &seqOut}); err != nil {
		log.Fatal(err)
	}
	var parOut strings.Builder
	res, err := parallel.RunLoop(inst, parallel.Options{Workers: 8, Out: &parOut})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parallel execution over %d workers: %d iterations\n", res.Workers, res.Iterations)
	fmt.Printf("sequential output: %sparallel output:   %s", seqOut.String(), parOut.String())
	if seqOut.String() == parOut.String() {
		fmt.Println("results match.")
	} else {
		fmt.Println("MISMATCH — this would be a bug.")
	}
}
