package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBaselinesListEveryLoop: the Idioms and ICC sections of -baselines
// list the loops of the report the command already holds. The program
// retires about 203M instructions, past the default 200M-step budget, so
// an analysis the command ran on the side at default settings would fail
// and leave both sections empty.
func TestBaselinesListEveryLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 200M-step program in a helper process")
	}
	var body strings.Builder
	for k := 0; k < 40; k++ {
		fmt.Fprintf(&body, "\t\tt = t * %d + %d;\n", k+3, k+1)
	}
	src := filepath.Join(t.TempDir(), "long.mc")
	prog := "func main() {\n\tvar s int = 0;\n\tfor (var i int = 0; i < 1600000; i++) {\n\t\tvar t int = i;\n" +
		body.String() + "\t}\n\tprint(s);\n}\n"
	if err := os.WriteFile(src, []byte(prog), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runAnalyzeChild(t, "-j", "1", "-max-steps", "1000000000", "-baselines", src).Output()
	if err != nil {
		t.Fatalf("analyze: %v\n%s", err, out)
	}
	for _, section := range []string{"== Idioms ==", "== ICC =="} {
		_, after, ok := strings.Cut(string(out), section+"\n")
		if !ok || !strings.HasPrefix(after, "main/L0: ") {
			t.Errorf("%s does not list main/L0:\n%s", section, out)
		}
	}
}
