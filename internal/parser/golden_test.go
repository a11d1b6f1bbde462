package parser_test

import (
	"flag"
	"fmt"
	"go/ast"
	goparser "go/parser"
	"go/token"
	"os"
	"strconv"
	"strings"
	"testing"

	"dca/internal/parser"
	"dca/internal/workloads/npb"
)

var update = flag.Bool("update", false, "rewrite testdata/diags.golden from the current parser")

const diagsGolden = "testdata/diags.golden"

// npbPrefixStride spaces the NPB source prefixes the golden file pins.
const npbPrefixStride = 13

// goldenInput is one input of the diagnostics golden file. Its name is
// either a quoted literal, the input itself, or "npb/EP[:130]", a prefix
// of an NPB proxy's source.
type goldenInput struct{ name, src string }

// goldenInputs returns the inputs the golden file is generated from: the
// FuzzParse seeds, every string literal of the lexer and parser tests, and
// every 13th prefix of the NPB EP and IS proxies.
func goldenInputs(t *testing.T) []goldenInput {
	t.Helper()
	var out []goldenInput
	seen := map[string]bool{}
	addLit := func(src string) {
		name := strconv.Quote(src)
		if !seen[name] {
			seen[name] = true
			out = append(out, goldenInput{name, src})
		}
	}
	for _, s := range fuzzSeeds {
		addLit(s)
	}
	for _, file := range []string{"../lexer/lexer_test.go", "parser_test.go"} {
		f, err := goparser.ParseFile(token.NewFileSet(), file, nil, 0)
		if err != nil {
			t.Fatalf("parse %s: %v", file, err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if src, err := strconv.Unquote(lit.Value); err == nil {
					addLit(src)
				}
			}
			return true
		})
	}
	for _, name := range []string{"EP", "IS"} {
		src := npb.SpecByName(name).Source()
		for k := 0; k <= len(src); k += npbPrefixStride {
			out = append(out, goldenInput{fmt.Sprintf("npb/%s[:%d]", name, k), src[:k]})
		}
	}
	return out
}

// resolveGolden recovers a golden record's input from its name.
func resolveGolden(t *testing.T, name string) string {
	t.Helper()
	if rest, ok := strings.CutPrefix(name, "npb/"); ok {
		spec, k, ok := strings.Cut(strings.TrimSuffix(rest, "]"), "[:")
		n, err := strconv.Atoi(k)
		s := npb.SpecByName(spec)
		if !ok || err != nil || s == nil || n > len(s.Source()) {
			t.Fatalf("bad golden input name %q", name)
		}
		return s.Source()[:n]
	}
	src, err := strconv.Unquote(name)
	if err != nil {
		t.Fatalf("bad golden input name %q: %v", name, err)
	}
	return src
}

// diagText renders what Parse reports for src: its error text, or "ok".
func diagText(src string) string {
	if _, err := parser.Parse("g.mc", src); err != nil {
		return err.Error()
	}
	return "ok"
}

// TestDiagnosticsGolden: Parse reports the same diagnostics, in the same
// order, as the golden file records for each of its inputs. Regenerate the
// file with -update.
func TestDiagnosticsGolden(t *testing.T) {
	if *update {
		var b strings.Builder
		for _, in := range goldenInputs(t) {
			fmt.Fprintf(&b, "== %s\n%s\n", in.name, diagText(in.src))
		}
		if err := os.WriteFile(diagsGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(diagsGolden)
	if err != nil {
		t.Fatal(err)
	}
	records := strings.Split(strings.TrimPrefix(string(data), "== "), "\n== ")
	if len(records) < 300 {
		t.Fatalf("%s holds %d inputs, want at least 300", diagsGolden, len(records))
	}
	for _, rec := range records {
		name, want, _ := strings.Cut(strings.TrimSuffix(rec, "\n"), "\n")
		if got := diagText(resolveGolden(t, name)); got != want {
			t.Errorf("%s:\ngot\n%s\nwant\n%s", name, got, want)
		}
	}
}
