package workload

import (
	"math"
	"math/bits"
	"math/rand"

	"github.com/firestarter-go/firestarter/internal/libsim"
	"github.com/firestarter-go/firestarter/internal/obsv"
)

// This file is the open-loop workload tier. The closed-loop Driver.Run
// stops offering load the moment the server stops answering — exactly the
// backlog a real population builds during a stall or a microreboot is the
// thing it cannot see. RunOpen offers load on a deterministic arrival
// schedule instead: arrivals keep coming whether or not the server keeps
// up, queue while it is busy, and are abandoned (shed client-side) when
// their patience runs out. The latency-vs-offered-load curve and the
// shedding knee fall straight out.

// ArrivalShape selects the deterministic arrival process of an open-loop
// run. All shapes are seeded from the driver seed and live entirely in
// the cycle domain — repeat runs are byte-identical.
type ArrivalShape string

const (
	// ShapePoisson draws exponential inter-arrival gaps — the memoryless
	// baseline of every queueing model.
	ShapePoisson ArrivalShape = "poisson"
	// ShapeBursty clusters arrivals into back-to-back groups of eight
	// separated by long lulls, preserving the configured mean rate.
	ShapeBursty ArrivalShape = "bursty"
	// ShapeDiurnal modulates a Poisson process sinusoidally (a compressed
	// day/night cycle): the instantaneous rate swings ±80% of the mean.
	ShapeDiurnal ArrivalShape = "diurnal"
)

// OpenConfig parameterizes an open-loop run. The zero value of every
// field selects a sane default, so tests can set only what they probe.
// The json tags make OpenConfig part of a recording's manifest
// (internal/replay): a recorded open-loop run is re-drawn from these
// parameters plus the driver seed.
type OpenConfig struct {
	Shape ArrivalShape `json:"shape"` // arrival process (default poisson)

	// RatePerMcycle is the offered load: mean arrivals per million
	// virtual cycles (default 50).
	RatePerMcycle float64 `json:"rate_per_mcycle"`

	// Total is the number of arrivals to offer (default 1000). Every
	// arrival reaches exactly one terminal: completed, bad response,
	// shed, conn-closed, or a run-end cause.
	Total int `json:"total"`

	// Clients is the modeled client population (default 10000). Each
	// arrival is assigned a client; a client's request stream depends
	// only on (seed, client id), never on delivery timing.
	Clients int `json:"clients"`

	// MaxConns bounds concurrently open connections — the population is
	// huge, the socket budget is not (default 32). Arrivals for clients
	// that cannot get a connection wait, and shed when Patience expires.
	MaxConns int `json:"max_conns"`

	// PipelineDepth is the maximum number of requests in flight on one
	// connection (default 1; >1 enables pipelining). Under tracing a
	// follow-up request is delivered only after the previous one was
	// started by the server (its trace promoted) and its bytes drained,
	// because the connection carries a single pending-trace slot.
	PipelineDepth int `json:"pipeline_depth"`

	// Patience is how many virtual cycles an undelivered arrival waits
	// before the client gives up and it is shed (default 2M).
	Patience int64 `json:"patience"`

	// ChurnEvery forces connection churn: every Nth arrival closes its
	// connection after its response (0 = close only when idle).
	ChurnEvery int `json:"churn_every,omitempty"`

	// SlowEvery marks every Nth distinct client a slow reader that
	// drains at most SlowBytes (default 3) per round instead of
	// everything — the slow-loris shape (0 = no slow readers).
	SlowEvery int `json:"slow_every,omitempty"`
	SlowBytes int `json:"slow_bytes,omitempty"`

	// FragmentEvery delivers every Nth arrival's request in FragSize
	// (default 4) byte fragments across consecutive rounds instead of one
	// write (0 = no fragmentation). Oversized requests exercise the same
	// path: any request longer than FragSize is split when selected.
	FragmentEvery int `json:"fragment_every,omitempty"`
	FragSize      int `json:"frag_size,omitempty"`
}

func (cfg *OpenConfig) defaults() {
	if cfg.Shape == "" {
		cfg.Shape = ShapePoisson
	}
	if cfg.RatePerMcycle <= 0 {
		cfg.RatePerMcycle = 50
	}
	if cfg.Total <= 0 {
		cfg.Total = 1000
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 10000
	}
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = 32
	}
	if cfg.PipelineDepth <= 0 {
		cfg.PipelineDepth = 1
	}
	if cfg.Patience <= 0 {
		cfg.Patience = 2_000_000
	}
	if cfg.SlowBytes <= 0 {
		cfg.SlowBytes = 3
	}
	if cfg.FragSize <= 0 {
		cfg.FragSize = 4
	}
}

// OpenResult extends the closed-loop Result with open-loop accounting.
// CleanLatency / RecoveryLatency measure from *arrival* (offer time), not
// delivery — queueing delay is the signal an open-loop run exists to
// expose.
type OpenResult struct {
	Result

	Offered   int   // arrivals offered (== Sent under tracing)
	Shed      int   // arrivals abandoned undelivered after Patience
	ConnLost  int   // delivered requests lost to a server-side close
	Abandoned int   // queued arrivals terminated by run end / death / stall
	PeakQueue int   // peak undelivered backlog — the knee shows here first
	Wall      int64 // virtual cycles from run start to the last terminal
}

// openScheduleSeed decorrelates the arrival schedule's rng from the
// per-client request rngs (which use Seed ^ clientID).
const openScheduleSeed = 0x6f6c6f6f70 // "oloop"

// arrivalClock generates the deterministic arrival schedule.
type arrivalClock struct {
	rng   *rand.Rand
	shape ArrivalShape
	mean  float64 // mean inter-arrival gap in cycles
	t     float64 // absolute time of the last arrival
	n     int
}

func (a *arrivalClock) next() int64 {
	var gap float64
	switch a.shape {
	case ShapeBursty:
		// Bursts of eight with jittered short gaps, then a long lull;
		// the expected gap stays exactly a.mean.
		j := 0.5 + a.rng.Float64()
		if a.n%8 == 7 {
			gap = 5 * a.mean * j
		} else {
			gap = (3.0 / 7.0) * a.mean * j
		}
	case ShapeDiurnal:
		// A compressed day: the rate swings sinusoidally over a period
		// of 200 mean gaps.
		phase := 2 * math.Pi * a.t / (200 * a.mean)
		gap = a.rng.ExpFloat64() * a.mean / (1 + 0.8*math.Sin(phase))
	default:
		gap = a.rng.ExpFloat64() * a.mean
	}
	a.n++
	a.t += gap
	return int64(a.t)
}

// openArrival is one offered request on its way to a terminal.
type openArrival struct {
	at    int64 // arrival (offer) time on the virtual clock
	idx   int   // global arrival index
	trace int64 // 0 when untraced
	req   []byte
	frag  bool // deliver in fragments
}

// openClient is the per-client connection state. Request content comes
// from the client's own rng; connections come and go underneath it.
type openClient struct {
	id       int
	idx      int // first-touch index (position in clientSet.all)
	rng      *rand.Rand
	conn     *libsim.Conn
	queue    []*openArrival // offered, not yet fully delivered (FIFO)
	inflight []*openArrival // delivered, awaiting response (FIFO)
	resp     []byte         // drained, not yet matched response bytes
	framed   int            // len(resp) when Split last found no complete response
	fragLeft []byte         // undelivered tail of queue[0]
	last     int64          // trace of the most recently delivered request
	slow     bool           // drains SlowBytes per round
	churn    bool           // close the connection after the next drain
}

// idle reports a client with nothing to deliver, await or drain: every
// per-round loop of RunOpen skips it.
func (c *openClient) idle() bool {
	return len(c.queue) == 0 && len(c.inflight) == 0 && len(c.fragLeft) == 0 && c.conn == nil
}

// clientSet holds every client touched so far in first-touch order, plus
// a bitset over that order marking the ones that may be active. A 20k
// population is almost entirely idle at any moment, so the per-round
// loops walk the bitset instead of the population: a walk costs one word
// per 64 clients plus the active ones, and lowest-bit-first order is
// first-touch order by construction.
type clientSet struct {
	all  []*openClient
	live []uint64
}

// add appends a newly touched client.
func (s *clientSet) add(c *openClient) {
	c.idx = len(s.all)
	s.all = append(s.all, c)
	if c.idx>>6 == len(s.live) {
		s.live = append(s.live, 0)
	}
}

// wake marks c active; an arrival calls it.
func (s *clientSet) wake(c *openClient) { s.live[c.idx>>6] |= 1 << (c.idx & 63) }

// next returns the first active client at first-touch index i or later,
// or nil. Idle clients it passes leave the set until their next arrival;
// one that goes idle after being returned leaves on the next walk.
func (s *clientSet) next(i int) *openClient {
	for w := i >> 6; w < len(s.live); w++ {
		word := s.live[w]
		if w == i>>6 {
			word &^= 1<<(i&63) - 1
		}
		for ; word != 0; word &= word - 1 {
			c := s.all[w<<6|bits.TrailingZeros64(word)]
			if !c.idle() {
				return c
			}
			s.live[w] &^= 1 << (c.idx & 63)
		}
	}
	return nil
}

// RunOpen drives the server open-loop. It shares every seam with Run —
// OS/M, a sched, or a Server such as the fleet balancer — plus the trace
// sink: every arrival consumes a trace ID in arrival order, so shed
// arrivals reach a req-lost terminal without a req-start (legal
// causality: the server never saw them).
func (d *Driver) RunOpen(cfg OpenConfig) OpenResult {
	cfg.defaults()
	if d.StepBudget <= 0 {
		d.StepBudget = 2_000_000
	}
	if d.StallCycles <= 0 {
		d.StallCycles = DefaultStallCycles
	}

	var res OpenResult
	if d.Sink != nil {
		res.CleanLatency = obsv.NewHist()
		res.RecoveryLatency = obsv.NewHist()
	}

	startCycles := d.cycles()
	startSteps := d.steps()
	finish := func() OpenResult {
		res.Cycles = d.cycles() - startCycles
		res.Steps = d.steps() - startSteps
		if d.Metrics != nil {
			res.PublishMetrics(d.Metrics)
			if d.S != nil {
				d.S.PublishMetrics(d.Metrics)
			}
		}
		return res
	}

	// Let the server finish startup and block on its event loop.
	if ok, _ := d.slice(&res.Result); !ok {
		return finish()
	}

	clock := &arrivalClock{
		rng:   rand.New(rand.NewSource(d.Seed ^ openScheduleSeed)),
		shape: cfg.Shape,
		mean:  1e6 / cfg.RatePerMcycle,
	}

	var (
		now       int64 // virtual wall clock, 0 = run start
		nextAt    = clock.next()
		offered   int
		terminals int
		queued    int // undelivered arrivals across all clients
		conns     int
		nextTrace = d.TraceBase
		clis      clientSet
		byID      = map[int]*openClient{}
	)

	lose := func(a *openArrival, cause string) {
		terminals++
		if d.Sink != nil {
			d.Sink.ReqLost(a.trace, cause)
		}
	}
	closeConn := func(c *openClient) {
		if c.conn != nil {
			c.conn.ClientClose()
			c.conn = nil
			conns--
		}
	}

	idleRounds := 0
	var idleCycles int64
	for terminals < cfg.Total {
		progressed := false
		roundStart := d.cycles()

		// Offer every arrival that is due.
		for offered < cfg.Total && nextAt <= now {
			id := clock.rng.Intn(cfg.Clients)
			c := byID[id]
			if c == nil {
				c = &openClient{id: id, rng: rand.New(rand.NewSource(d.Seed ^ int64(id)))}
				if cfg.SlowEvery > 0 && (len(clis.all)+1)%cfg.SlowEvery == 0 {
					c.slow = true
				}
				byID[id] = c
				clis.add(c)
			}
			clis.wake(c)
			a := &openArrival{at: nextAt, idx: offered}
			a.req = d.Gen.Next(id, c.rng)
			if cfg.FragmentEvery > 0 && (offered+1)%cfg.FragmentEvery == 0 && len(a.req) > cfg.FragSize {
				a.frag = true
			}
			if d.Sink != nil {
				nextTrace++
				a.trace = nextTrace
				res.Sent++
			}
			c.queue = append(c.queue, a)
			queued++
			offered++
			res.Offered++
			if queued > res.PeakQueue {
				res.PeakQueue = queued
			}
			nextAt = clock.next()
			progressed = true
		}

		// Deliver what the connection rules allow, in first-touch client
		// order (deterministic).
		for c := clis.next(0); c != nil; c = clis.next(c.idx + 1) {
			if len(c.queue) == 0 && len(c.inflight) == 0 {
				continue
			}
			if c.conn != nil && c.conn.ServerClosed() {
				// The server closed underneath us (shed, crash, reboot):
				// everything on the wire is gone.
				for _, a := range c.inflight {
					res.ConnLost++
					lose(a, "conn-closed")
				}
				c.inflight = c.inflight[:0]
				c.resp, c.framed = nil, 0
				if len(c.fragLeft) > 0 {
					// queue[0] was half-delivered; its prefix died with
					// the connection.
					res.ConnLost++
					lose(c.queue[0], "conn-closed")
					c.queue = c.queue[1:]
					queued--
					c.fragLeft = nil
				}
				c.conn = nil
				conns--
				progressed = true
			}
			if c.conn == nil {
				if len(c.queue) == 0 || conns >= cfg.MaxConns {
					continue
				}
				c.conn = d.connect()
				if c.conn == nil {
					continue // listener down or backlog full; retry
				}
				conns++
				c.last = 0
			}
			// A half-delivered request owns the connection until its
			// last fragment lands.
			if len(c.fragLeft) > 0 {
				n := min(cfg.FragSize, len(c.fragLeft))
				c.conn.ClientDeliver(c.fragLeft[:n])
				c.fragLeft = c.fragLeft[n:]
				progressed = true
				if len(c.fragLeft) > 0 {
					continue
				}
				a := c.queue[0]
				c.queue = c.queue[1:]
				queued--
				c.inflight = append(c.inflight, a)
			}
			for len(c.queue) > 0 && len(c.inflight) < cfg.PipelineDepth && len(c.fragLeft) == 0 {
				if d.Sink != nil && len(c.inflight) > 0 &&
					(c.conn.Trace() != c.last || c.conn.InboundLen() != 0) {
					// Pipelining under tracing: wait until the previous
					// request was started and its bytes consumed — the
					// conn's pending-trace slot holds one ID.
					break
				}
				a := c.queue[0]
				body := a.req
				if a.frag {
					body = a.req[:cfg.FragSize]
					c.fragLeft = a.req[cfg.FragSize:]
				}
				if d.Sink != nil {
					c.conn.ClientDeliverTraced(body, a.trace)
				} else {
					c.conn.ClientDeliver(body)
				}
				c.last = a.trace
				progressed = true
				if len(c.fragLeft) > 0 {
					break // rest of the request goes out next rounds
				}
				c.queue = c.queue[1:]
				queued--
				c.inflight = append(c.inflight, a)
			}
		}

		ok, busy := d.slice(&res.Result)
		now += d.cycles() - roundStart
		if !ok {
			break
		}

		// Drain and match responses; apply churn and idle-close.
		for c := clis.next(0); c != nil; c = clis.next(c.idx + 1) {
			if c.conn == nil {
				continue
			}
			var out []byte
			if c.slow {
				out = c.conn.ClientTakeN(cfg.SlowBytes)
			} else {
				out = c.conn.ClientTake()
			}
			if len(out) > 0 {
				c.resp = appendResp(c.resp, out)
				progressed = true
			}
			// Split is a pure function of the buffer, and the buffer only
			// grows between matches: re-frame only when bytes arrived
			// since Split last came up short.
			for len(c.inflight) > 0 && len(c.resp) > c.framed {
				n := d.Gen.Split(c.resp)
				if n == 0 {
					c.framed = len(c.resp)
					break
				}
				a := c.inflight[0]
				c.inflight = c.inflight[1:]
				resp := c.resp[:n]
				c.resp, c.framed = consumeResp(c.resp, n), 0
				okResp := d.Gen.Check(a.req, resp)
				if okResp {
					res.Completed++
				} else {
					res.BadResp++
				}
				terminals++
				if d.Sink != nil {
					touched := d.Sink.ReqDone(a.trace, okResp)
					lat := max(now-a.at, 0)
					if touched {
						res.RecoveryLatency.Observe(lat)
					} else {
						res.CleanLatency.Observe(lat)
					}
				}
				if cfg.ChurnEvery > 0 && (a.idx+1)%cfg.ChurnEvery == 0 {
					c.churn = true
				}
				progressed = true
			}
			if len(c.inflight) == 0 && len(c.fragLeft) == 0 &&
				(c.churn || len(c.queue) == 0) {
				// Keep-alive ends here: forced churn, or nothing left for
				// this client — free the socket for the population.
				closeConn(c)
				c.churn = false
			}
		}

		// Patience: the oldest undelivered arrivals abandon the queue.
		for c := clis.next(0); c != nil; c = clis.next(c.idx + 1) {
			for len(c.queue) > 0 && len(c.fragLeft) == 0 {
				a := c.queue[0]
				if now-a.at <= cfg.Patience {
					break // FIFO: everything behind is younger
				}
				c.queue = c.queue[1:]
				queued--
				res.Shed++
				lose(a, "shed")
				progressed = true
			}
		}

		if progressed {
			idleRounds, idleCycles = 0, 0
			continue
		}
		if offered < cfg.Total && nextAt > now {
			// Quiet period: nothing in flight can move and the next
			// arrival is in the future — real time passes without server
			// work, so jump the virtual clock. Never a stall.
			now = nextAt
			idleRounds, idleCycles = 0, 0
			continue
		}
		// Same stall accounting as the closed loop: compute-burst rounds
		// charge only the cycle budget, blocked fixpoints the round limit.
		idleCycles += d.cycles() - roundStart
		if busy {
			idleRounds = 0
		} else {
			idleRounds++
		}
		if idleRounds > stallRounds || idleCycles > d.StallCycles {
			res.Stalled = true
			break
		}
	}

	// Terminal accounting for everything still in the system.
	cause := "run-end"
	switch {
	case res.ServerDied:
		cause = "server-died"
	case res.Stalled:
		cause = "stalled"
	}
	for _, c := range clis.all {
		for _, a := range c.inflight {
			res.Outstanding++
			lose(a, cause)
		}
		c.inflight = nil
		for _, a := range c.queue {
			res.Abandoned++
			queued--
			lose(a, cause)
		}
		c.queue = nil
		c.fragLeft = nil
	}
	res.Wall = now
	return finish()
}
