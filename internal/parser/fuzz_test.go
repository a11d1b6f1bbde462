package parser_test

import (
	"testing"

	"dca/internal/parser"
	"dca/internal/types"
)

// fuzzSeeds are FuzzParse's seed corpus; TestDiagnosticsGolden pins the
// diagnostics Parse reports on them.
var fuzzSeeds = []string{
	"",
	"func main() { }",
	"struct S { a int; b *S; } func main() { var s *S = new S; s->a = 1; }",
	"func f(x int) int { return x * 2; } func main() { print(f(21)); }",
	`func main() { for (var i int = 0; i < 10; i++) { if (i % 2 == 0) { continue; } break; } }`,
	`func main() { var a []int = new [4]int; a[0] += len(a); print(a[0]); }`,
	`func main() { var s string = "a\n\"b"; print(s < "z", s + s); }`,
	`func main() { while (true) { } }`,
	"func main() { var f float = 1.5e3; print(int(f), float(2)); }",
	"struct { } func",
	"func main() { ((((((((((1))))))))))",
	"/* unterminated",
	"func main() { a->b->c[d[e]]->f = -!-!g; }",
}

// FuzzParse feeds arbitrary text through the parser and, when it parses,
// through the type checker: neither may panic or hang.
func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			return
		}
		prog, err := parser.Parse("fuzz.mc", src)
		if err != nil || prog == nil {
			return
		}
		_, _ = types.Check(prog)
	})
}
