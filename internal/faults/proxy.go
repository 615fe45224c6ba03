package faults

import (
	"io"
	"net"
	"sync"
)

// Proxy is a TCP fault proxy for transport tests: it relays bytes
// between clients and a target address and can tear a server→client
// stream mid-frame (partial write followed by connection close) or cut
// every live connection — the two transport faults the TCP clients
// (the broker's and the serving RPCs', one grpcish pool under both) must
// surface as typed, retryable errors.
type Proxy struct {
	ln     net.Listener
	target string

	mu    sync.Mutex
	conns map[net.Conn]bool
	// tearBudget, once armed, counts down server→client bytes; when it
	// hits zero the connection carrying the response is severed.
	tearBudget int
	tearArmed  bool

	closed  chan struct{}
	closeMu sync.Once
	wg      sync.WaitGroup
}

// NewProxy starts a proxy in front of target on an ephemeral localhost
// port.
func NewProxy(target string) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{
		ln:     ln,
		target: target,
		conns:  make(map[net.Conn]bool),
		closed: make(chan struct{}),
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address; point clients here.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// TearAfter arms the torn-frame fault: the next n server→client bytes
// pass, then the connection carrying them is closed mid-stream.
func (p *Proxy) TearAfter(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.tearArmed = true
	p.tearBudget = n
}

// cutConnections severs every live proxied connection (both sides), as
// a broker restart would.
func (p *Proxy) cutConnections() {
	p.mu.Lock()
	conns := make([]net.Conn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
}

// Close stops accepting, severs live connections, and waits for every
// relay goroutine.
func (p *Proxy) Close() error {
	p.closeMu.Do(func() { close(p.closed) })
	err := p.ln.Close()
	p.cutConnections()
	p.wg.Wait()
	return err
}

func (p *Proxy) track(c net.Conn) {
	p.mu.Lock()
	p.conns[c] = true
	p.mu.Unlock()
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		upstream, err := net.Dial("tcp", p.target)
		if err != nil {
			_ = client.Close()
			continue
		}
		p.track(client)
		p.track(upstream)
		pair := func(a, b net.Conn) {
			_ = a.Close()
			_ = b.Close()
			p.untrack(a)
			p.untrack(b)
		}
		// client → upstream: plain relay.
		p.wg.Add(1)
		go func(client, upstream net.Conn) {
			defer p.wg.Done()
			_, _ = io.Copy(upstream, client)
			pair(client, upstream)
		}(client, upstream)
		// upstream → client: relay through the tear gate.
		p.wg.Add(1)
		go func(client, upstream net.Conn) {
			defer p.wg.Done()
			p.relayDown(client, upstream)
			pair(client, upstream)
		}(client, upstream)
	}
}

// relayDown copies upstream→client applying the armed tear budget.
func (p *Proxy) relayDown(client, upstream net.Conn) {
	buf := make([]byte, 32<<10)
	for {
		n, err := upstream.Read(buf)
		if n > 0 {
			chunk := buf[:n]
			p.mu.Lock()
			armed := p.tearArmed
			budget := p.tearBudget
			p.mu.Unlock()
			if armed {
				if len(chunk) >= budget {
					// Pass the allowed prefix, then sever mid-frame.
					if budget > 0 {
						_, _ = client.Write(chunk[:budget])
					}
					p.mu.Lock()
					p.tearArmed = false
					p.mu.Unlock()
					return
				}
				p.mu.Lock()
				p.tearBudget -= len(chunk)
				p.mu.Unlock()
			}
			if _, werr := client.Write(chunk); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}
