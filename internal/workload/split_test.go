package workload

import (
	"bytes"
	"strconv"
	"testing"
)

// splitBySplit is the original HTTP framing, which materialised every
// header line with bytes.Split. It stays here as the oracle HTTPGen.Split
// must agree with on every input.
func splitBySplit(buf []byte) int {
	head := bytes.Index(buf, []byte("\r\n\r\n"))
	if head < 0 {
		return 0
	}
	bodyStart := head + 4
	cl := 0
	for _, line := range bytes.Split(buf[:head], []byte("\r\n")) {
		if v, ok := bytes.CutPrefix(line, []byte("Content-Length: ")); ok {
			n, err := strconv.Atoi(string(v))
			if err != nil {
				return 0
			}
			cl = n
		}
	}
	if len(buf) < bodyStart+cl {
		return 0
	}
	return bodyStart + cl
}

// splitSamples are framing shapes the open-loop driver sees: a complete
// response, a pipelined pair, a header cut mid-line, a body cut short,
// and the edge cases of the Content-Length rule (last one wins, a
// malformed value means no complete response).
var splitSamples = []string{
	"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello",
	"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: 3\r\n\r\nabcHTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n",
	"HTTP/1.1 200 OK\r\nContent-Len",
	"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort",
	"HTTP/1.1 200 OK\r\nContent-Length: 9\r\nContent-Length: 2\r\n\r\nok",
	"HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n",
	"HTTP/1.1 200 OK\r\nContent-Length: -3\r\n\r\n",
	"\r\n\r\n",
	"Content-Length: 1\r\n\r\n\r\n\r\nz",
}

// FuzzHTTPSplit checks the in-place header walk of HTTPGen.Split against
// the bytes.Split oracle.
func FuzzHTTPSplit(f *testing.F) {
	for _, s := range splitSamples {
		f.Add([]byte(s))
	}
	g := DefaultHTTPMix()
	f.Fuzz(func(t *testing.T, buf []byte) {
		if got, want := g.Split(buf), splitBySplit(buf); got != want {
			t.Fatalf("Split(%q) = %d, oracle %d", buf, got, want)
		}
	})
}

// TestHTTPSplitNoAlloc gates the response framing at zero allocations:
// the open-loop driver frames every response it drains.
func TestHTTPSplitNoAlloc(t *testing.T) {
	g := DefaultHTTPMix()
	for _, s := range splitSamples {
		buf := []byte(s)
		if bytes.Contains(buf, []byte("Content-Length: x")) {
			continue // the error path builds a *strconv.NumError
		}
		if n := testing.AllocsPerRun(100, func() { g.Split(buf) }); n != 0 {
			t.Errorf("Split(%q): %v allocs per call, want 0", s, n)
		}
	}
}

// BenchmarkHTTPSplit frames a pipelined pair of responses with a typical
// header block.
func BenchmarkHTTPSplit(b *testing.B) {
	g := DefaultHTTPMix()
	buf := []byte(splitSamples[1])
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Split(buf)
	}
}
