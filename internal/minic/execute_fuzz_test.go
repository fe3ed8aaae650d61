package minic

import (
	"testing"

	"github.com/firestarter-go/firestarter/internal/interp"
	"github.com/firestarter-go/firestarter/internal/libsim"
	"github.com/firestarter-go/firestarter/internal/mem"
)

// FuzzExecute checks that stopping and resuming the interpreter at any
// instruction boundary is unobservable (go test -fuzz=FuzzExecute
// ./internal/minic). Every corpus program that compiles runs on two fresh
// machines, one in single-instruction quanta and one in 20,000-instruction
// quanta, both bounded; they must agree on outcome, steps, cycles, stack
// depth and exit code. In normal test runs it exercises the seed corpus.
func FuzzExecute(f *testing.F) {
	seeds := []string{
		"int main() { return 0; }",
		"int f(int n) { if (n < 2) { return n; } return f(n-1) + f(n-2); } int main() { return f(10); }",
		"int main() { int s = 0; for (int i = 0; i < 50; i++) { s = s + i; } return s; }",
		"int g = 0; int main() { for (int i = 0; i < 20; i++) { g = g + 3; } return g; }",
		`char msg[6] = "hello"; int main() { return strlen(msg); }`,
		"int main() { int *p = malloc(16); if (!p) { return -1; } p[0] = 7; p[1] = p[0] * 6; int r = p[1]; free(p); return r; }",
		"int main() { int a = 100; int b = 7; return a / b + a % b; }",
		"int main() { int i = 0; while (1) { i++; if (i > 1000) { break; } } return i; }",
		"struct s { int a; int b; }; int main() { struct s v; v.a = 3; v.b = 4; return v.a * v.b; }",
		"int main() { int x = 0; return 1 / x; }",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Compile(src, Config{})
		if err != nil || prog == nil || prog.Validate() != nil {
			t.Skip()
		}
		ms, err := interp.New(prog, libsim.New(mem.NewSpace()), nil)
		if err != nil {
			t.Skip()
		}
		mb, err := interp.New(prog.Clone(), libsim.New(mem.NewSpace()), nil)
		if err != nil {
			t.Skip()
		}

		// Both machines stop after the same number of instructions at the
		// latest (fuzz inputs may loop forever): the single-step machine
		// stops at every instruction boundary on the way, the other only
		// every quantum.
		const quantum = 20_000
		const maxSteps = 51 * quantum
		var outS, outB interp.Outcome
		for ms.Steps < maxSteps {
			if outS = ms.Run(1); outS.Kind != interp.OutStepLimit {
				break
			}
		}
		for mb.Steps < maxSteps {
			if outB = mb.Run(quantum); outB.Kind != interp.OutStepLimit {
				break
			}
		}
		if outS.Kind != outB.Kind || outS.Code != outB.Code {
			t.Fatalf("outcomes diverged: single-step %v/%d, quantum %v/%d\nsrc: %s",
				outS.Kind, outS.Code, outB.Kind, outB.Code, truncate(src))
		}
		if ms.Steps != mb.Steps || ms.Cycles != mb.Cycles {
			t.Fatalf("steps/cycles diverged: single-step %d/%d, quantum %d/%d\nsrc: %s",
				ms.Steps, ms.Cycles, mb.Steps, mb.Cycles, truncate(src))
		}
		if ms.Depth() != mb.Depth() {
			t.Fatalf("stack depth diverged: single-step %d, quantum %d\nsrc: %s",
				ms.Depth(), mb.Depth(), truncate(src))
		}
		if ms.Exited() != mb.Exited() || ms.ExitCode() != mb.ExitCode() {
			t.Fatalf("exit diverged: single-step %v/%d, quantum %v/%d\nsrc: %s",
				ms.Exited(), ms.ExitCode(), mb.Exited(), mb.ExitCode(), truncate(src))
		}
	})
}
