package grpcish

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"crayfish/internal/resilience"
)

const (
	// DefaultCallTimeout bounds one exchange when a protocol's client is
	// given no timeout: no hung peer may wedge a run (a hang is
	// indistinguishable from a crash without a deadline).
	DefaultCallTimeout = 30 * time.Second
	// maxIdle caps the connections a Pool keeps for reuse.
	maxIdle = 64
	// readBuffer sizes a connection's buffered reader.
	readBuffer = 64 << 10
)

// ErrClosed is returned by every exchange on a closed Pool, including
// one that was in flight when it closed.
var ErrClosed = errors.New("grpcish: closed")

// ErrUnavailable types every transport failure of an exchange — dial
// failure, connection reset, torn or malformed frame, deadline — as
// distinct from an error the peer answered with. Such failures are
// marked retryable (resilience.IsRetryable).
//
//lint:allow deadexport the broker's fault tests match it (TestTornFrameSurfacesTypedRetryableError)
var ErrUnavailable = errors.New("unavailable")

// Listener accepts TCP connections and serves each on a goroutine of its
// own until Close.
type Listener struct {
	ln    net.Listener
	serve func(conn net.Conn, br *bufio.Reader, done <-chan struct{})
	done  chan struct{} // closed by Close: the cancel of whatever a serve loop parks on

	mu     sync.Mutex
	conns  map[net.Conn]bool
	closed bool
	wg     sync.WaitGroup
}

// Listen binds addr (e.g. "127.0.0.1:0") and returns once the listener is
// bound. serve runs one connection's request loop, reading through br,
// until the connection fails, which Close makes happen.
func Listen(addr string, serve func(conn net.Conn, br *bufio.Reader, done <-chan struct{})) (*Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	l := &Listener{ln: ln, serve: serve, done: make(chan struct{}), conns: make(map[net.Conn]bool)}
	l.wg.Add(1)
	go l.accept()
	return l, nil
}

// Addr returns the bound listen address.
func (l *Listener) Addr() string { return l.ln.Addr().String() }

// Close stops the listener and its connections, closes done, and waits
// for every serve loop to return.
func (l *Listener) Close() error {
	l.mu.Lock()
	if !l.closed {
		close(l.done)
	}
	l.closed = true
	for c := range l.conns {
		c.Close()
	}
	l.mu.Unlock()
	err := l.ln.Close()
	l.wg.Wait()
	return err
}

func (l *Listener) accept() {
	defer l.wg.Done()
	for {
		conn, err := l.ln.Accept()
		if err != nil {
			return
		}
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			conn.Close()
			return
		}
		l.conns[conn] = true
		l.wg.Add(1)
		l.mu.Unlock()
		go func() {
			defer l.wg.Done()
			l.serve(conn, bufio.NewReaderSize(conn, readBuffer), l.done)
			conn.Close()
			l.mu.Lock()
			delete(l.conns, conn)
			l.mu.Unlock()
		}()
	}
}

// Pool is a client's connections to one server. Each exchange checks a
// connection out for its round trip, so independent goroutines proceed in
// parallel; a parked exchange holds its connection for the park.
type Pool struct {
	addr    string
	timeout time.Duration
	keep    func(n int, first byte) bool

	// idle connections wait for an exchange, busy ones are in one; Close
	// closes both kinds, so an exchange parked at the server ends with it.
	mu     sync.Mutex
	idle   []*poolConn
	busy   []*poolConn
	closed bool
}

// poolConn is one pooled connection. buf is its scratch: the request
// frame is built in it, then a response body that is not kept is read
// into it. watched is where the goroutine watching a parked exchange's
// cancel channel reports back (watch).
type poolConn struct {
	c       net.Conn
	br      *bufio.Reader
	buf     []byte
	watched chan bool
}

// watch interrupts the connection's pending read when cancel closes. The
// caller collects the verdict from watched once its read has returned —
// true: interrupted — and the rendezvous is also what guarantees that
// the watcher is done with the connection before anyone else uses it.
func (c *poolConn) watch(cancel <-chan struct{}) {
	select {
	case <-cancel:
		// A deadline in the past fails the blocked read at once.
		c.c.SetReadDeadline(time.Unix(1, 0))
		c.watched <- true
	case c.watched <- false:
	}
}

// DialPool connects to addr, eagerly, so that misconfiguration fails
// fast. timeout bounds each dial and each exchange; ≤ 0 disables
// deadlines. keep is ReadFrame's choice of the response bodies an
// exchange's decoder may retain.
func DialPool(addr string, timeout time.Duration, keep func(n int, first byte) bool) (*Pool, error) {
	p := &Pool{addr: addr, timeout: timeout, keep: keep}
	c, err := p.checkout()
	if err != nil {
		return nil, err
	}
	p.release(c, true)
	return p, nil
}

// Close tears down the connections, those of exchanges in flight
// included: such an exchange returns ErrClosed.
func (p *Pool) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	for _, c := range append(p.idle, p.busy...) {
		c.c.Close()
	}
	p.idle = nil
	return nil
}

func (p *Pool) checkout() (*poolConn, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	if n := len(p.idle); n > 0 {
		c := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.busy = append(p.busy, c)
		p.mu.Unlock()
		return c, nil
	}
	p.mu.Unlock()
	// The dial too is bounded by the call timeout: a blackholed peer must
	// fail fast, not on the kernel's connect timeout.
	conn, err := net.DialTimeout("tcp", p.addr, max(p.timeout, 0))
	if err != nil {
		return nil, p.unavailable("dial", err)
	}
	c := &poolConn{c: conn, br: bufio.NewReaderSize(conn, readBuffer), watched: make(chan bool)}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		conn.Close()
		return nil, ErrClosed
	}
	p.busy = append(p.busy, c)
	return c, nil
}

// release takes a connection out of the busy set, back into the idle one
// when reuse says it can carry another exchange and there is room, and
// closes it otherwise. It reports whether the pool has been closed.
func (p *Pool) release(c *poolConn, reuse bool) (closed bool) {
	p.mu.Lock()
	if i := slices.Index(p.busy, c); i >= 0 {
		last := len(p.busy) - 1
		p.busy[i], p.busy[last] = p.busy[last], nil
		p.busy = p.busy[:last]
	}
	closed = p.closed
	if reuse = reuse && !closed && len(p.idle) < maxIdle; reuse {
		p.idle = append(p.idle, c)
	}
	p.mu.Unlock()
	if !reuse {
		c.c.Close()
	}
	return closed
}

// unavailable types err, met in the stage of an exchange, as a retryable
// transport failure.
func (p *Pool) unavailable(stage string, err error) error {
	return resilience.MarkRetryable(fmt.Errorf("grpcish: %s %s: %w: %w", stage, p.addr, ErrUnavailable, err))
}

// RoundTrip performs one exchange on a pooled connection. enc builds the
// request frame from BeginFrame in the connection's scratch; dec decodes
// the response body, which it may retain only when the pool's keep gave
// it a buffer of its own. The deadline allows for a request the server
// may sit on for up to park before it answers; when cancel closes first,
// the exchange is abandoned and RoundTrip returns nil without calling dec.
//
// A frame too large to send fails with ErrFrameTooLarge, and a closed
// pool with ErrClosed. Every other failure, an error of dec included (a
// peer that answers a malformed frame is broken), is a transport fault:
// it drops the connection and the idle ones, which point at the same
// dead peer (a restarted daemon, say), so the next exchange redials.
func (p *Pool) RoundTrip(enc func(b []byte) []byte, dec func(body []byte) error, park time.Duration, cancel <-chan struct{}) error {
	c, err := p.checkout()
	if err != nil {
		return err
	}
	if p.timeout > 0 {
		c.c.SetDeadline(time.Now().Add(p.timeout + park))
	}
	c.buf = enc(c.buf)
	stage := "write"
	if err = WriteFrame(c.c, c.buf); errors.Is(err, ErrFrameTooLarge) {
		c.buf = nil // nothing was sent: the connection is good
		p.release(c, true)
		return err
	}
	if err == nil {
		stage = "read"
		if cancel != nil {
			//lint:allow gorolifecycle joined just below: the receive from watched is the watcher's last act
			go c.watch(cancel)
		}
		var body []byte
		body, err = ReadFrame(c.br, &c.buf, p.keep)
		if cancel != nil && <-c.watched {
			// The server will still answer, to nobody: the connection
			// cannot carry another exchange.
			if p.release(c, false) {
				return ErrClosed
			}
			return nil
		}
		if err == nil {
			err = dec(body)
		}
	}
	if err != nil {
		if p.release(c, false) {
			return ErrClosed
		}
		p.mu.Lock()
		idle := p.idle
		p.idle = nil
		p.mu.Unlock()
		for _, c := range idle {
			c.c.Close()
		}
		return p.unavailable(stage, err)
	}
	if p.timeout > 0 {
		c.c.SetDeadline(time.Time{})
	}
	p.release(c, true)
	return nil
}
