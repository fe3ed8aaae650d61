package libsim

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"github.com/firestarter-go/firestarter/internal/mem"
)

// copyQueue is the reference model of a connection's outbound queue: the
// obvious implementation that copies on every operation, so it shares no
// backing array with anything it returns.
type copyQueue struct{ b []byte }

func (q *copyQueue) write(p []byte) { q.b = append(append([]byte(nil), q.b...), p...) }

func (q *copyQueue) takeN(n int) []byte {
	if n <= 0 || len(q.b) == 0 {
		return nil
	}
	n = min(n, len(q.b))
	out := append([]byte(nil), q.b[:n]...)
	q.b = append([]byte(nil), q.b[n:]...)
	return out
}

func (q *copyQueue) take() []byte {
	out := q.b
	q.b = nil
	return out
}

func (q *copyQueue) truncate(n int64) {
	if n >= 0 && n < int64(len(q.b)) {
		q.b = append([]byte(nil), q.b[:n]...)
	}
}

// TestConnQueueMatchesCopyModel drives random interleavings of every
// operation on a connection's outbound queue — server writes, proxied
// deliveries, partial and full client drains (n ≤ 0 and n past the end
// included), SockOutLen and TruncateSockOut — and compares each returned
// byte and length with the copying reference model after every step.
// Bytes handed out by earlier drains must never change afterwards, even
// when the caller appends to them: the queue drains by reslicing, so
// they alias its backing array.
func TestConnQueueMatchesCopyModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			o := newOS(t)
			c, fd := acceptConn(t, o, 80)
			src := int64(mem.GlobalBase + 0x1000)
			var model copyQueue
			type handed struct{ got, want []byte }
			var taken []handed
			next := byte(0)
			fill := func(n int) []byte {
				p := make([]byte, n)
				for i := range p {
					p[i] = next
					next++
				}
				return p
			}
			for step := 0; step < 400; step++ {
				var op string
				switch k := rng.Intn(10); {
				case k < 3:
					p := fill(rng.Intn(40) + 1)
					op = fmt.Sprintf("write(%d)", len(p))
					if err := o.Space.WriteBytes(src, p); err != nil {
						t.Fatal(err)
					}
					if w := call(t, o, "write", fd, src, int64(len(p))); w != int64(len(p)) {
						t.Fatalf("step %d: write = %d, want %d", step, w, len(p))
					}
					model.write(p)
				case k == 3:
					p := fill(rng.Intn(40) + 1)
					op = fmt.Sprintf("ProxyDeliver(%d)", len(p))
					c.ProxyDeliver(p)
					model.write(p)
				case k < 7:
					n := rng.Intn(len(model.b)+8) - 4
					op = fmt.Sprintf("ClientTakeN(%d)", n)
					got, want := c.ClientTakeN(n), model.takeN(n)
					if !bytes.Equal(got, want) {
						t.Fatalf("step %d %s = %v, want %v", step, op, got, want)
					}
					taken = append(taken, handed{got, want})
				case k == 7:
					op = "ClientTake"
					got, want := c.ClientTake(), model.take()
					if !bytes.Equal(got, want) {
						t.Fatalf("step %d %s = %v, want %v", step, op, got, want)
					}
					taken = append(taken, handed{got, want})
				case k == 8:
					n := int64(rng.Intn(len(model.b)+4) - 2)
					op = fmt.Sprintf("TruncateSockOut(%d)", n)
					if !o.TruncateSockOut(fd, n) {
						t.Fatalf("step %d: %s failed", step, op)
					}
					model.truncate(n)
				default:
					// A caller appending to a drained slice must not reach
					// into the queue.
					if len(taken) > 0 {
						i := rng.Intn(len(taken))
						op = fmt.Sprintf("append to drain %d", i)
						h := &taken[i]
						extra := fill(rng.Intn(8) + 1)
						h.got = append(h.got, extra...)
						h.want = append(append([]byte(nil), h.want...), extra...)
					}
				}
				if got := o.SockOutLen(fd); got != int64(len(model.b)) {
					t.Fatalf("step %d after %s: SockOutLen = %d, want %d", step, op, got, len(model.b))
				}
				if got := c.OutboundLen(); got != len(model.b) {
					t.Fatalf("step %d after %s: OutboundLen = %d, want %d", step, op, got, len(model.b))
				}
				for i, h := range taken {
					if !bytes.Equal(h.got, h.want) {
						t.Fatalf("step %d after %s: drain %d changed to %v, want %v", step, op, i, h.got, h.want)
					}
				}
			}
			if got, want := c.ClientTake(), model.take(); !bytes.Equal(got, want) {
				t.Fatalf("final drain = %v, want %v", got, want)
			}
		})
	}
}

// BenchmarkConnSlowDrain drains one response three bytes at a time, the
// open-loop slow reader's pace. The drain advances by reslicing, so the
// ns/byte figure is flat across response sizes; a copy-per-drain queue
// makes it grow linearly with the response.
func BenchmarkConnSlowDrain(b *testing.B) {
	for _, size := range []int{4 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("%dKiB", size>>10), func(b *testing.B) {
			resp := bytes.Repeat([]byte{'x'}, size)
			c := NewConn()
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.ProxyDeliver(resp)
				for c.OutboundLen() > 0 {
					c.ClientTakeN(3)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(size), "ns/byte")
		})
	}
}
