package interp_test

import (
	"errors"
	"strings"
	"testing"

	"github.com/firestarter-go/firestarter/internal/interp"
	"github.com/firestarter-go/firestarter/internal/ir"
	"github.com/firestarter-go/firestarter/internal/libsim"
	"github.com/firestarter-go/firestarter/internal/mem"
	"github.com/firestarter-go/firestarter/internal/minic"
)

// run compiles and runs a mini-C program to completion under the Direct
// runtime, returning the exit code and the OS for further inspection.
func run(t *testing.T, src string) (int64, *libsim.OS, interp.Outcome) {
	t.Helper()
	prog, err := minic.Compile(src, minic.Config{KnownLib: libsim.Known})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	o := libsim.New(mem.NewSpace())
	m, err := interp.New(prog, o, nil)
	if err != nil {
		t.Fatalf("machine: %v", err)
	}
	out := m.Run(5_000_000)
	return m.ExitCode(), o, out
}

func expectExit(t *testing.T, src string, want int64) *libsim.OS {
	t.Helper()
	code, o, out := run(t, src)
	if out.Kind != interp.OutExited {
		t.Fatalf("outcome = %v (trap %+v), want exit", out.Kind, out.Trap)
	}
	if code != want {
		t.Fatalf("exit code = %d, want %d", code, want)
	}
	return o
}

func TestReturnConstant(t *testing.T) {
	expectExit(t, `int main() { return 42; }`, 42)
}

func TestArithmetic(t *testing.T) {
	expectExit(t, `
int main() {
	int a = 7;
	int b = 3;
	return a * b + a / b - a % b + (a << 1) - (a >> 1) + (a ^ b) + (a & b) + (a | b);
}`, 21+2-1+14-3+4+3+7)
}

func TestComparisonAndLogic(t *testing.T) {
	expectExit(t, `
int main() {
	int x = 5;
	if (x > 3 && x < 10) { return 1; }
	return 0;
}`, 1)
	expectExit(t, `
int main() {
	int x = 5;
	if (x < 3 || x == 5) { return 1; }
	return 0;
}`, 1)
}

func TestShortCircuitSkipsRHS(t *testing.T) {
	// The RHS would trap (divide by zero) if evaluated.
	expectExit(t, `
int main() {
	int zero = 0;
	if (zero != 0 && 1 / zero) { return 9; }
	if (1 == 1 || 1 / zero) { return 7; }
	return 0;
}`, 7)
}

func TestWhileAndFor(t *testing.T) {
	expectExit(t, `
int main() {
	int sum = 0;
	for (int i = 1; i <= 10; i++) { sum += i; }
	int j = 0;
	while (j < 5) { sum += 100; j++; }
	return sum;
}`, 55+500)
}

func TestBreakContinue(t *testing.T) {
	expectExit(t, `
int main() {
	int sum = 0;
	for (int i = 0; i < 100; i++) {
		if (i % 2 == 0) { continue; }
		if (i > 10) { break; }
		sum += i;
	}
	return sum;
}`, 1+3+5+7+9)
}

func TestFunctionsAndRecursion(t *testing.T) {
	expectExit(t, `
int fib(int n) {
	if (n < 2) { return n; }
	return fib(n - 1) + fib(n - 2);
}
int main() { return fib(12); }`, 144)
}

func TestGlobalsAndArrays(t *testing.T) {
	expectExit(t, `
int counter = 5;
int table[10];
int main() {
	counter = counter + 1;
	for (int i = 0; i < 10; i++) { table[i] = i * i; }
	return counter * 100 + table[7];
}`, 649)
}

func TestLocalArraysAndPointers(t *testing.T) {
	expectExit(t, `
int main() {
	int buf[8];
	int *p = buf;
	for (int i = 0; i < 8; i++) { p[i] = i + 1; }
	int *q = buf + 3;
	return *q + q[1] + (q - p);
}`, 4+5+3)
}

func TestCharBuffersAndStrings(t *testing.T) {
	o := expectExit(t, `
int main() {
	char buf[32];
	strcpy(buf, "hello");
	buf[5] = '!';
	buf[6] = 0;
	puts(buf);
	return strlen(buf);
}`, 6)
	if got := o.Stdout(); got != "hello!\n" {
		t.Fatalf("stdout = %q", got)
	}
}

func TestStructsOnHeap(t *testing.T) {
	expectExit(t, `
struct point {
	int x;
	int y;
	char tag;
};
int main() {
	struct point *p = malloc(sizeof(struct point));
	if (!p) { return -1; }
	p->x = 11;
	p->y = 22;
	p->tag = 'z';
	int s = p->x + p->y + p->tag;
	free(p);
	return s - 'z';
}`, 33)
}

func TestStructSizeofPacking(t *testing.T) {
	expectExit(t, `
struct conn {
	int fd;
	char *buf;
	int len;
	char name[16];
};
int main() { return sizeof(struct conn); }`, 8+8+8+16)
}

func TestAssignmentAsExpression(t *testing.T) {
	// The C idiom the paper's Listing 1 depends on.
	expectExit(t, `
int main() {
	int rc;
	if ((rc = socket()) == -1) { return 99; }
	return rc;
}`, 3) // first app fd is 3
}

func TestCompoundAssignAndIncDec(t *testing.T) {
	expectExit(t, `
int main() {
	int x = 10;
	x += 5; x -= 2; x *= 3; x /= 2; x %= 11;
	int arr[4];
	arr[0] = 0;
	arr[0]++;
	arr[0]++;
	arr[0]--;
	return x * 10 + arr[0];
}`, 81) // ((10+5-2)*3/2)%11 = 8 → 8*10 + 1
}

func TestCompoundAssignValue(t *testing.T) {
	// 10+5=15; 15-2=13; 13*3=39; 39/2=19; 19%11=8 → 8*10+1 = 81.
	expectExit(t, `
int main() {
	int x = 10;
	x += 5; x -= 2; x *= 3; x /= 2; x %= 11;
	return x;
}`, 8)
}

func TestPointerIncrementScales(t *testing.T) {
	expectExit(t, `
int main() {
	int buf[4];
	buf[0] = 1; buf[1] = 2; buf[2] = 3; buf[3] = 4;
	int *p = buf;
	p++;
	p++;
	return *p;
}`, 3)
}

func TestNullDereferenceTraps(t *testing.T) {
	_, _, out := run(t, `
int main() {
	int *p = NULL;
	return *p;
}`)
	if out.Kind != interp.OutTrapped || out.Code != ir.TrapBadAccess {
		t.Fatalf("outcome = %+v, want bad-access trap", out)
	}
}

func TestAssertFailureTraps(t *testing.T) {
	_, _, out := run(t, `
int main() {
	int x = 3;
	assert(x == 4);
	return 0;
}`)
	if out.Kind != interp.OutTrapped || out.Code != ir.TrapAssert {
		t.Fatalf("outcome = %+v, want assert trap", out)
	}
}

func TestDivideByZeroTraps(t *testing.T) {
	_, _, out := run(t, `
int main() {
	int z = 0;
	return 5 / z;
}`)
	if out.Kind != interp.OutTrapped || out.Code != ir.TrapDivZero {
		t.Fatalf("outcome = %+v, want div-zero trap", out)
	}
}

func TestUseAfterFreeCorruptionTraps(t *testing.T) {
	_, _, out := run(t, `
int main() {
	int *p = malloc(64);
	free(p);
	free(p);
	return 0;
}`)
	if out.Kind != interp.OutTrapped {
		t.Fatalf("outcome = %+v, want trap (double free)", out)
	}
}

func TestStackOverflowTraps(t *testing.T) {
	_, _, out := run(t, `
int deep(int n) {
	char pad[4096];
	pad[0] = n;
	return deep(n + 1) + pad[0];
}
int main() { return deep(0); }`)
	if out.Kind != interp.OutTrapped || out.Code != ir.TrapBadAccess {
		t.Fatalf("outcome = %+v, want stack-overflow trap", out)
	}
}

func TestErrnoVisibleToProgram(t *testing.T) {
	// Bind the same port twice; the second must fail with EADDRINUSE,
	// mirroring the paper's Listing 1 error handling.
	expectExit(t, `
int main() {
	int s1 = socket();
	int s2 = socket();
	if (bind(s1, 8080) == -1) { return 1; }
	if (bind(s2, 8080) == -1) {
		if (errno() == 98) { return 50; }
		return 2;
	}
	return 3;
}`, 50)
}

func TestServerAcceptLoopWithBlocking(t *testing.T) {
	src := `
int main() {
	int s = socket();
	setsockopt(s, 2, 1);
	if (bind(s, 80) == -1) { return 1; }
	if (listen(s, 16) == -1) { return 2; }
	int ep = epoll_create();
	epoll_ctl(ep, 1, s);
	int served = 0;
	char buf[256];
	int events[8];
	while (served < 3) {
		int n = epoll_wait(ep, events, 8);
		if (n <= 0) { continue; }
		int fd = accept(s);
		if (fd == -1) { continue; }
		int got = read(fd, buf, 256);
		if (got > 0) {
			write(fd, buf, got);
		}
		close(fd);
		served++;
	}
	return served;
}`
	prog, err := minic.Compile(src, minic.Config{KnownLib: libsim.Known})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	o := libsim.New(mem.NewSpace())
	m, err := interp.New(prog, o, nil)
	if err != nil {
		t.Fatal(err)
	}

	// First run: server sets up and blocks in epoll_wait.
	out := m.Run(1_000_000)
	if out.Kind != interp.OutBlocked {
		t.Fatalf("first run outcome = %v, want blocked", out.Kind)
	}

	// Drive three echo requests through it.
	for i := 0; i < 3; i++ {
		c := o.Connect(80)
		if c == nil {
			t.Fatalf("connect %d failed", i)
		}
		c.ClientDeliver([]byte("ping"))
		out = m.Run(1_000_000)
		if i < 2 && out.Kind != interp.OutBlocked {
			t.Fatalf("run %d outcome = %v, want blocked", i, out.Kind)
		}
		if got := string(c.ClientTake()); got != "ping" {
			t.Fatalf("echo %d = %q", i, got)
		}
	}
	if out.Kind != interp.OutExited || m.ExitCode() != 3 {
		t.Fatalf("final outcome = %v code=%d", out.Kind, m.ExitCode())
	}
}

func TestFileServing(t *testing.T) {
	src := `
int main() {
	char path[32];
	strcpy(path, "/www/index.html");
	int fd = open(path, 0);
	if (fd == -1) { return 1; }
	int st[2];
	if (fstat(fd, st) == -1) { return 2; }
	int size = st[0];
	char *body = malloc(size + 1);
	if (!body) { return 3; }
	int got = pread(fd, body, size, 0);
	close(fd);
	if (got != size) { return 4; }
	body[size] = 0;
	puts(body);
	free(body);
	return size;
}`
	prog, err := minic.Compile(src, minic.Config{KnownLib: libsim.Known})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	o := libsim.New(mem.NewSpace())
	o.FS().Add("/www/index.html", []byte("<html>ok</html>"))
	m, err := interp.New(prog, o, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := m.Run(1_000_000)
	if out.Kind != interp.OutExited || m.ExitCode() != 15 {
		t.Fatalf("outcome = %v code=%d trap=%+v", out.Kind, m.ExitCode(), out.Trap)
	}
	if !strings.Contains(o.Stdout(), "<html>ok</html>") {
		t.Fatalf("stdout = %q", o.Stdout())
	}
}

func TestCyclesAccumulate(t *testing.T) {
	prog, err := minic.Compile(`int main() { int s = 0; for (int i = 0; i < 1000; i++) { s += i; } return 0; }`,
		minic.Config{})
	if err != nil {
		t.Fatal(err)
	}
	o := libsim.New(mem.NewSpace())
	m, err := interp.New(prog, o, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(0)
	if m.Cycles < 1000 || m.Steps < 1000 {
		t.Fatalf("cycles = %d steps = %d, want >= 1000", m.Cycles, m.Steps)
	}
}

func TestStepLimit(t *testing.T) {
	prog, err := minic.Compile(`int main() { while (1) { } return 0; }`, minic.Config{})
	if err != nil {
		t.Fatal(err)
	}
	o := libsim.New(mem.NewSpace())
	m, err := interp.New(prog, o, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := m.Run(10_000)
	if out.Kind != interp.OutStepLimit {
		t.Fatalf("outcome = %v, want step-limit", out.Kind)
	}
	// Resumable: running again hits the limit again, no corruption.
	out = m.Run(10_000)
	if out.Kind != interp.OutStepLimit {
		t.Fatalf("second outcome = %v, want step-limit", out.Kind)
	}
}

func TestSnapshotRestore(t *testing.T) {
	prog, err := minic.Compile(`
int g = 0;
int main() {
	g = 1;
	g = 2;
	return g;
}`, minic.Config{})
	if err != nil {
		t.Fatal(err)
	}
	o := libsim.New(mem.NewSpace())
	m, err := interp.New(prog, o, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	m.Run(3)
	m.Restore(snap)
	out := m.Run(0)
	if out.Kind != interp.OutExited || m.ExitCode() != 2 {
		t.Fatalf("after restore: %v code=%d", out.Kind, m.ExitCode())
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{`int main() { return x; }`, "undefined variable"},
		{`int main() { frobnicate(1); return 0; }`, "not a known library call"},
		{`int f(int a) { return a; } int main() { return f(1, 2); }`, "want 1"},
		{`int main() { break; }`, "break outside loop"},
		{`int main() { int x = 1; int x = 2; return x; }`, "redeclared"},
		{`int main() { struct nope *p = NULL; return p->q; }`, "undefined struct"},
		{`void main() { return 1; }`, "void function"},
		{`int main() { int a = 1; return *a; }`, "dereference non-pointer"},
		{`int x; int main() { return &x == &x; }`, ""}, // valid: globals are addressable
	}
	for _, tc := range cases {
		_, err := minic.Compile(tc.src, minic.Config{KnownLib: libsim.Known})
		if tc.want == "" {
			if err != nil {
				t.Errorf("Compile(%q) = %v, want nil", tc.src, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Compile(%q) err = %v, want contains %q", tc.src, err, tc.want)
		}
	}
}

func TestGlobalInitializers(t *testing.T) {
	expectExit(t, `
int answer = 42;
int negative = -7;
char greeting[6] = "hi";
int main() { return answer + negative + greeting[0]; }`, 42-7+'h')
}

func TestNestedIfElseChains(t *testing.T) {
	src := `
int classify(int x) {
	if (x < 0) { return 1; }
	else if (x == 0) { return 2; }
	else if (x < 10) { return 3; }
	else { return 4; }
}
int main() {
	return classify(-5) * 1000 + classify(0) * 100 + classify(5) * 10 + classify(50);
}`
	expectExit(t, src, 1234)
}

func TestAddressOfGlobalThroughPointer(t *testing.T) {
	expectExit(t, `
int g = 10;
int bump(int *p) { *p = *p + 5; return *p; }
int main() { return bump(&g) + g; }`, 30)
}

func TestMemsetMemcpyFromProgram(t *testing.T) {
	expectExit(t, `
int main() {
	char a[16];
	char b[16];
	memset(a, 'x', 15);
	a[15] = 0;
	memcpy(b, a, 16);
	return strcmp(a, b) == 0 && strlen(b) == 15;
}`, 1)
}

// TestThreadArgOverflowTraps is the regression test for push silently
// truncating arguments: spawning a thread entry with more arguments than
// the function has registers must fail-stop with TrapBadCall instead of
// running with a dropped argument.
func TestThreadArgOverflowTraps(t *testing.T) {
	p := ir.NewProgram()
	f := &ir.Func{Name: "main", NumRegs: 1}
	b := f.NewBlock("entry")
	b.Instrs = []ir.Instr{
		{Op: ir.OpConst, Dst: 0, Imm: 0},
		{Op: ir.OpRet, A: 0},
	}
	p.AddFunc(f)
	w := &ir.Func{Name: "worker", Params: 0, NumRegs: 0}
	wb := w.NewBlock("entry")
	wb.Instrs = []ir.Instr{{Op: ir.OpRet, A: -1}}
	p.AddFunc(w)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	m, err := interp.New(p, libsim.New(mem.NewSpace()), nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = interp.NewThread(m, nil, p.Funcs["worker"], []int64{42}, 1)
	if err == nil {
		t.Fatal("NewThread accepted more args than the entry has registers")
	}
	var trap *interp.Trap
	if !errors.As(err, &trap) || trap.Code != ir.TrapBadCall {
		t.Fatalf("err = %v, want TrapBadCall", err)
	}
}
