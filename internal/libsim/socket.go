package libsim

// Listener is a bound, listening socket with an accept queue.
type Listener struct {
	Port    int64
	backlog int
	queue   []*Conn
	closed  bool

	// Opts records setsockopt settings (so tests can assert on them and
	// compensation can be observed).
	Opts map[int64]int64
}

// Pending returns the number of connections waiting to be accepted.
func (l *Listener) Pending() int { return len(l.queue) }

// Conn is one established connection. The server side reads from in and
// writes to out; the client endpoint (package netsim) does the reverse.
type Conn struct {
	in, out      []byte
	clientClosed bool // client sent FIN: reads drain then return 0
	serverClosed bool // server closed its fd
	reset        bool // client sent RST: reads/writes fail with ECONNRESET

	// trace is the causal trace ID of the request the server is currently
	// consuming on this connection; pendingTrace holds a delivered-but-
	// unread request's ID until the server's first read promotes it (so a
	// crash before the server touches the new request is never attributed
	// to a trace that hasn't started). 0 means untraced.
	trace        int64
	pendingTrace int64
}

// CloseServer closes the server side of the connection.
func (c *Conn) CloseServer() { c.serverClosed = true }

// ServerClosed reports whether the server closed its end.
func (c *Conn) ServerClosed() bool { return c.serverClosed }

// ClientDeliver appends bytes arriving from the client (netsim side).
func (c *Conn) ClientDeliver(data []byte) { c.in = append(c.in, data...) }

// ClientDeliverTraced delivers request bytes stamped with a causal trace
// ID. The ID becomes the connection's active trace when the server first
// reads the bytes (see OS.SetTraceHook); until then it is only pending.
func (c *Conn) ClientDeliverTraced(data []byte, trace int64) {
	c.in = append(c.in, data...)
	if trace != 0 {
		c.pendingTrace = trace
	}
}

// Trace returns the connection's active trace ID (0 = untraced).
func (c *Conn) Trace() int64 { return c.trace }

// PromoteTrace marks trace as this connection's active trace if it is the
// one still pending. A proxy that forwarded the request to a back-end
// whose first read promoted it there calls this to mirror the promotion
// onto the client-facing front, so a pipelining client can observe that
// the server has started consuming its request.
func (c *Conn) PromoteTrace(trace int64) {
	if trace != 0 && c.pendingTrace == trace {
		c.pendingTrace = 0
	}
	if trace != 0 {
		c.trace = trace
	}
}

// ClientClose marks the client end closed (FIN).
func (c *Conn) ClientClose() { c.clientClosed = true }

// ClientReset aborts the connection from the client end (RST, the effect
// of closing with unread data or SO_LINGER 0). Queued inbound data is
// discarded and the peer's subsequent reads and writes fail with
// ECONNRESET, unlike the graceful drain-then-EOF of ClientClose.
func (c *Conn) ClientReset() {
	c.reset = true
	c.in = nil
}

// ClientTake drains and returns everything the server has written
// (netsim side).
func (c *Conn) ClientTake() []byte {
	out := c.out
	c.out = nil
	return out
}

// ClientTakeN drains at most n response bytes, leaving the rest queued —
// a slow reader whose receive window admits only part of what the server
// wrote. The undrained remainder keeps exerting backpressure exactly like
// a real socket buffer: the server's writes still land, the client just
// hasn't consumed them.
//
// The queue advances by reslicing, so a drain costs O(1) whatever the
// backlog. The returned bytes alias the drained prefix of the queue's
// backing array; nothing writes there again (writes append past the
// queue's end, truncation only shortens it), and the capacity is capped
// so an append by the caller copies instead of reaching into the queue.
func (c *Conn) ClientTakeN(n int) []byte {
	if n <= 0 || len(c.out) == 0 {
		return nil
	}
	if n >= len(c.out) {
		return c.ClientTake()
	}
	out := c.out[:n:n]
	c.out = c.out[n:]
	return out
}

// OutboundLen returns bytes written by the server but not yet drained by
// the client — the slow-reader backlog.
func (c *Conn) OutboundLen() int { return len(c.out) }

// Readable reports whether a server-side read would make progress: data is
// queued, or the client closed (EOF and ECONNRESET are both readable).
func (c *Conn) Readable() bool { return len(c.in) > 0 || c.clientClosed || c.reset }

// NewConn returns a detached connection, not queued on any listener. The
// fleet balancer owns the listening endpoint Go-side: it hands detached
// conns to the workload driver as the client-facing front and proxies
// their bytes to a replica's real listener.
func NewConn() *Conn { return &Conn{} }

// ProxyTake drains the client→server direction from the balancer side:
// everything the client delivered, plus the pending (not yet active)
// trace ID stamped on it, which is cleared — the balancer re-stamps it
// on the back-end connection so the replica's first read still promotes
// it. Returns (nil, 0) when nothing is queued.
func (c *Conn) ProxyTake() (data []byte, trace int64) {
	data = c.in
	trace = c.pendingTrace
	c.in = nil
	c.pendingTrace = 0
	return data, trace
}

// ProxyDeliver queues response bytes toward the client on behalf of the
// back-end replica (the balancer-side mirror of a server write).
func (c *Conn) ProxyDeliver(data []byte) { c.out = append(c.out, data...) }

// ClientGone reports whether the client end is gone (FIN or RST): the
// balancer drops such conns instead of failing them over.
func (c *Conn) ClientGone() bool { return c.clientClosed || c.reset }

// ClientResetSeen reports an abortive close specifically (RST).
func (c *Conn) ClientResetSeen() bool { return c.reset }

// InboundLen returns queued unread bytes (tests).
func (c *Conn) InboundLen() int { return len(c.in) }

// Connect establishes a client connection to a bound port, Go-side. It
// returns the connection to drive from the client end, or nil if no
// listener is bound or the accept queue is full.
func (o *OS) Connect(port int64) *Conn {
	l, ok := o.ports[port]
	if !ok || l.closed {
		return nil
	}
	if l.backlog > 0 && len(l.queue) >= l.backlog {
		return nil
	}
	c := &Conn{}
	l.queue = append(l.queue, c)
	return c
}

// ListenerOn returns the listener bound to port, or nil (tests).
func (o *OS) ListenerOn(port int64) *Listener { return o.ports[port] }

// Unbind releases a bound port without closing the socket's descriptor —
// the compensation action for bind(2), which must revert the binding while
// leaving the fd for the application's own error handling to close.
func (o *OS) Unbind(port int64) bool {
	l, ok := o.ports[port]
	if !ok {
		return false
	}
	l.Port = 0
	delete(o.ports, port)
	return true
}

// PortOfFD returns the bound port of a listener descriptor, or -1.
func (o *OS) PortOfFD(fd int64) int64 {
	s := o.lookupFD(fd)
	if s == nil || s.Kind != FDListener {
		return -1
	}
	return s.Listener.Port
}

// SockOutLen returns the bytes queued toward the client on a connection
// descriptor, or -1 for non-connection descriptors. Together with
// TruncateSockOut it implements the paper's proposed write-masking
// extension (§V-A): a socket write's network-visible effect can be
// retracted while the bytes are still in flight, letting write/send join
// the recoverable classes.
func (o *OS) SockOutLen(fd int64) int64 {
	s := o.lookupFD(fd)
	if s == nil || s.Kind != FDConn {
		return -1
	}
	return int64(len(s.Conn.out))
}

// TruncateSockOut drops bytes queued after position n on a connection
// (the compensation action for a masked write).
func (o *OS) TruncateSockOut(fd, n int64) bool {
	s := o.lookupFD(fd)
	if s == nil || s.Kind != FDConn {
		return false
	}
	if n >= 0 && n < int64(len(s.Conn.out)) {
		s.Conn.out = s.Conn.out[:n]
	}
	return true
}

// Epoll is an epoll instance: the watched-descriptor set as a bitmap
// indexed by fd. Descriptors are small ints from the slab, so the dense
// representation replaces the old map (one alloc per conn plus hash
// churn per wait) and makes the ready scan a naturally-ordered sweep.
type Epoll struct {
	watched []bool
}

// watch marks fd as watched, growing the bitmap as needed.
func (e *Epoll) watch(fd int64) {
	if fd < 0 {
		return
	}
	for int64(len(e.watched)) <= fd {
		e.watched = append(e.watched, false)
	}
	e.watched[fd] = true
}

// unwatch clears fd from the watched set.
func (e *Epoll) unwatch(fd int64) {
	if fd >= 0 && fd < int64(len(e.watched)) {
		e.watched[fd] = false
	}
}

// readyFDs returns watched descriptors that are currently readable, in
// ascending fd order (deterministic). The returned slice is the OS's
// reusable scratch buffer, valid until the next call.
func (o *OS) readyFDs(ep *Epoll) []int64 {
	ready := o.epready[:0]
	for i := range ep.watched {
		if !ep.watched[i] {
			continue
		}
		fd := int64(i)
		s := o.lookupFD(fd)
		if s == nil {
			continue
		}
		switch s.Kind {
		case FDListener:
			if len(s.Listener.queue) > 0 {
				ready = append(ready, fd)
			}
		case FDConn:
			if s.Conn.Readable() {
				ready = append(ready, fd)
			}
		case FDEventFD:
			ready = append(ready, fd)
		}
	}
	o.epready = ready
	return ready
}
