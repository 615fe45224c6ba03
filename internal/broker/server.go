package broker

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"crayfish/internal/resilience"
)

// Wire protocol. Requests and responses alternate synchronously per
// connection; clients open multiple connections for parallelism. There
// is one framing and no negotiation:
//
//	frame   = uint32 big-endian length | tag byte | payload
//	          (the length counts the tag and the payload, at most maxFrameSize)
//	int     = uvarint of the value's two's complement, shortest spelling only
//	bytes   = uvarint length | raw bytes
//	time    = int64 big-endian Unix nanoseconds; math.MinInt64 is the zero time
//	record  = int partition | int offset | time create | time append | bytes key | bytes value
//	records = uvarint count | record*
//
// One line per tag (wire.go holds the codec):
//
//	'P' request:  bytes topic | int partition | records            (produce)
//	'A' response: int base offset                                  (to 'P'; to 'W', zero)
//	'F' request:  bytes topic | int max | uvarint count | (int partition | int offset)*
//	              (fetch and fetch_multi; a fetch is one position)
//	'W' request:  bytes topic | int wait ms | uvarint count | (int partition | int offset)*
//	              (await: answered once a record is readable at one of the
//	              positions, the wait — clamped to [0, maxAwait] — has elapsed,
//	              or the server shuts down; it carries no records, the 'F'
//	              that follows does)
//	'R' response: int hw | int epoch | records                     (to 'F', hw = epoch = 0,
//	              and to the control op replica_fetch)
//	'C' either:   a JSON wireRequest or wireResponse — every other op, and every
//	              error response, including those to 'P' and 'F'
//
// Record bytes never pass through JSON. A reader refuses a count or a
// length that the bytes remaining cannot hold before it sizes anything
// by them, and reads a body in bounded steps as it arrives. A malformed
// payload or an unknown tag closes the connection; an unknown control op
// is answered with an error.

// wireRequest is the client -> server control document. From/Epoch/View
// serve the cluster ops (replica_fetch, push_view); single-broker
// traffic leaves them zero.
type wireRequest struct {
	Op         string          `json:"op"`
	Topic      string          `json:"topic,omitempty"`
	Partition  int             `json:"partition,omitempty"`
	Partitions int             `json:"partitions,omitempty"`
	Offset     int64           `json:"offset,omitempty"`
	Max        int             `json:"max,omitempty"`
	Group      string          `json:"group,omitempty"`
	Member     string          `json:"member,omitempty"`
	Generation int             `json:"generation,omitempty"`
	Topics     []string        `json:"topics,omitempty"`
	TP         *TopicPartition `json:"tp,omitempty"`
	From       int             `json:"from,omitempty"`
	Epoch      int             `json:"epoch,omitempty"`
	View       *ClusterView    `json:"view,omitempty"`
}

// wireNotLeader carries a NotLeaderError's re-route hint across the
// wire so the cluster client can reconstruct the typed error.
type wireNotLeader struct {
	Topic     string `json:"topic"`
	Partition int    `json:"partition"`
	Leader    int    `json:"leader"`
	Epoch     int    `json:"epoch"`
}

// wireResponse is the server -> client control document. Retryable
// preserves the resilience marking across the wire the way Rebalance
// preserves ErrRebalance; NotLeader/View serve the cluster ops.
type wireResponse struct {
	Err        string         `json:"err,omitempty"`
	Rebalance  bool           `json:"rebalance,omitempty"`
	Retryable  bool           `json:"retryable,omitempty"`
	NotLeader  *wireNotLeader `json:"not_leader,omitempty"`
	Offset     int64          `json:"offset,omitempty"`
	Count      int            `json:"count,omitempty"`
	Assignment *Assignment    `json:"assignment,omitempty"`
	View       *ClusterView   `json:"view,omitempty"`
	Admitted   bool           `json:"admitted,omitempty"`
}

// requestHandler is what a Server serves: the two record-bearing ops and
// the await as methods, every other op as a control request whose
// response frame the handler appends. The Server is generic over it so
// the same listener and framing serve a standalone Broker or a cluster
// Node.
type requestHandler interface {
	Produce(topic string, partition int, recs []Record) (int64, error)
	MultiFetcherInto
	Await(topic string, positions []FetchRequest, wait time.Duration, cancel <-chan struct{}) error
	control(req *wireRequest, out []byte) ([]byte, error)
}

// Server exposes a request handler over TCP.
type Server struct {
	h  requestHandler
	ln net.Listener

	// done closes when the server shuts down: the cancel of every await
	// parked on a connection's goroutine.
	done chan struct{}

	mu     sync.Mutex
	conns  map[net.Conn]bool
	closed bool
	wg     sync.WaitGroup
}

// maxAwait bounds how long one 'W' frame may park its connection's
// goroutine, whatever the peer asks for.
const maxAwait = time.Second

// Serve starts a TCP server for the broker on addr (e.g. "127.0.0.1:0")
// and returns once the listener is bound.
func Serve(b *Broker, addr string) (*Server, error) {
	return serveHandler(brokerHandler{b}, addr)
}

// ServeNode starts a TCP server for a cluster node: the standard
// Transport ops gated by the node's leadership/high-watermark rules,
// plus the cluster ops (ping, metadata, push_view, log_end,
// replica_fetch, admit_follower).
func ServeNode(n *Node, addr string) (*Server, error) {
	return serveHandler(nodeHandler{n}, addr)
}

func serveHandler(h requestHandler, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{h: h, ln: ln, done: make(chan struct{}), conns: make(map[net.Conn]bool)}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and all connections, waking the awaits
// parked on them.
func (s *Server) Close() error {
	s.mu.Lock()
	if !s.closed {
		close(s.done)
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handle(conn)
	}
}

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, 64<<10)
	c := serverConn{h: s.h, cancel: s.done}
	for {
		tag, payload, err := readFrame(br, &c.buf)
		if err != nil {
			return
		}
		if err := c.serve(tag, payload); err != nil {
			return
		}
		// The record buffer must not keep the last frame's keys and
		// values alive while the connection idles.
		clear(c.recs)
		if err := writeFrame(conn, c.buf); err != nil {
			return
		}
		c.buf = trimScratch(c.buf)
	}
}

// serverConn is one connection's reusable state. buf holds a
// record-free request payload and then the response frame: a decoder
// copies what it keeps of such a payload (topic, positions) before the
// response overwrites it, and a payload that can hold a record never
// lands in buf (readFrame). recs is the decoded produce batch or the
// fetched records the response is encoded straight from. topics interns
// the few topic names a connection sees, so that a request naming one
// again — every poll — does not allocate its string.
type serverConn struct {
	h      requestHandler
	cancel <-chan struct{}
	buf    []byte
	recs   []Record
	reqs   []FetchRequest
	topics map[string]string
}

// maxInternedTopics bounds serverConn.topics against a peer that names
// a new topic in every request.
const maxInternedTopics = 64

func (c *serverConn) topic(name []byte) string {
	if s, ok := c.topics[string(name)]; ok {
		return s
	}
	s := string(name)
	if len(c.topics) < maxInternedTopics {
		if c.topics == nil {
			c.topics = make(map[string]string)
		}
		c.topics[s] = s
	}
	return s
}

// serve answers one request frame by building its response frame in
// c.buf. An error means the request was malformed and the connection is
// to be closed; an error of the op itself is a response like any other.
func (c *serverConn) serve(tag byte, payload []byte) error {
	switch tag {
	case tagProduce:
		topic, partition, recs, err := decodeProduce(payload, c.recs[:0])
		if err != nil {
			return err
		}
		c.recs = recs
		off, err := c.h.Produce(c.topic(topic), partition, recs)
		if err != nil {
			return c.fail(err)
		}
		c.buf = appendAckFrame(c.buf, off)
		return nil
	case tagFetch:
		topic, maxTotal, reqs, err := decodeFetch(payload, c.reqs[:0])
		if err != nil {
			return err
		}
		c.reqs = reqs
		recs, err := c.h.FetchMultiInto(c.topic(topic), reqs, maxTotal, c.recs[:0])
		if err != nil {
			return c.fail(err)
		}
		c.recs = recs
		c.buf = appendRecordsFrame(c.buf, 0, 0, recs)
		return nil
	case tagAwait:
		topic, waitMs, reqs, err := decodeAwait(payload, c.reqs[:0])
		if err != nil {
			return err
		}
		c.reqs = reqs
		wait := time.Duration(min(max(waitMs, 0), maxAwait.Milliseconds())) * time.Millisecond
		if err := c.h.Await(c.topic(topic), reqs, wait, c.cancel); err != nil {
			return c.fail(err)
		}
		c.buf = appendAckFrame(c.buf, 0)
		return nil
	case tagControl:
		var req wireRequest
		err := json.Unmarshal(payload, &req)
		if err == nil {
			c.buf, err = c.h.control(&req, c.buf)
		}
		return err
	}
	return errMalformedFrame
}

// fail answers a produce or a fetch whose op failed.
func (c *serverConn) fail(opErr error) error {
	// A fetch may have filled part of the buffer before it failed.
	clear(c.recs[:cap(c.recs)])
	var err error
	c.buf, err = appendErrorFrame(c.buf, opErr)
	return err
}

// failResp encodes an error into a response, preserving the typed
// verdicts clients reconstruct: rebalance, retryability, and the
// NotLeader re-route hint.
func failResp(resp *wireResponse, err error) *wireResponse {
	resp.Err = err.Error()
	resp.Rebalance = errors.Is(err, ErrRebalance)
	resp.Retryable = resilience.IsRetryable(err)
	var nl *NotLeaderError
	if errors.As(err, &nl) {
		resp.NotLeader = &wireNotLeader{Topic: nl.TP.Topic, Partition: nl.TP.Partition, Leader: nl.Leader, Epoch: nl.Epoch}
	}
	return resp
}

// appendErrorFrame builds the response to an op that failed.
func appendErrorFrame(b []byte, err error) ([]byte, error) {
	return appendControlFrame(b, failResp(&wireResponse{}, err))
}

// dispatchTransport serves the Transport ops that travel as control
// requests against t — the shared core of the standalone-broker and
// cluster-node handlers.
func dispatchTransport(t Transport, req *wireRequest) *wireResponse {
	resp := &wireResponse{}
	fail := func(err error) *wireResponse { return failResp(resp, err) }
	switch req.Op {
	case "create_topic":
		if err := t.CreateTopic(req.Topic, req.Partitions); err != nil {
			return fail(err)
		}
	case "delete_topic":
		if err := t.DeleteTopic(req.Topic); err != nil {
			return fail(err)
		}
	case "partitions":
		n, err := t.Partitions(req.Topic)
		if err != nil {
			return fail(err)
		}
		resp.Count = n
	case "end_offset":
		off, err := t.EndOffset(req.Topic, req.Partition)
		if err != nil {
			return fail(err)
		}
		resp.Offset = off
	case "join_group":
		a, err := t.JoinGroup(req.Group, req.Topics)
		if err != nil {
			return fail(err)
		}
		resp.Assignment = &a
	case "leave_group":
		if err := t.LeaveGroup(req.Group, req.Member); err != nil {
			return fail(err)
		}
	case "fetch_assignment":
		a, err := t.FetchAssignment(req.Group, req.Member, req.Generation)
		resp.Assignment = &a
		if err != nil {
			return fail(err)
		}
	case "commit_offset":
		if req.TP == nil {
			return fail(fmt.Errorf("broker: commit_offset missing tp"))
		}
		if err := t.CommitOffset(req.Group, *req.TP, req.Offset); err != nil {
			return fail(err)
		}
	case "committed_offset":
		if req.TP == nil {
			return fail(fmt.Errorf("broker: committed_offset missing tp"))
		}
		off, err := t.CommittedOffset(req.Group, *req.TP)
		if err != nil {
			return fail(err)
		}
		resp.Offset = off
	default:
		return fail(fmt.Errorf("broker: unknown op %q", req.Op))
	}
	return resp
}

// brokerHandler serves a standalone Broker.
type brokerHandler struct{ *Broker }

func (h brokerHandler) control(req *wireRequest, out []byte) ([]byte, error) {
	return appendControlFrame(out, dispatchTransport(h.Broker, req))
}

// nodeHandler serves a cluster Node: the cluster ops plus the standard
// Transport ops routed through the node's leadership gates.
type nodeHandler struct{ *Node }

func (h nodeHandler) control(req *wireRequest, out []byte) ([]byte, error) {
	resp := &wireResponse{}
	var err error
	switch req.Op {
	case "ping":
		err = h.Ping()
	case "metadata":
		var v ClusterView
		if v, err = h.ClusterView(); err == nil {
			resp.View = &v
		}
	case "push_view":
		if req.View == nil {
			err = fmt.Errorf("broker: push_view missing view")
		} else {
			err = h.PushView(*req.View)
		}
	case "log_end":
		resp.Offset, err = h.LogEnd(TopicPartition{Topic: req.Topic, Partition: req.Partition})
	case "admit_follower":
		resp.Admitted, err = h.AdmitFollower(TopicPartition{Topic: req.Topic, Partition: req.Partition}, req.From, req.Epoch)
	case "replica_fetch":
		// The one control op answered with a records frame.
		var r ReplicaFetchResponse
		r, err = h.ReplicaFetch(ReplicaFetchRequest{
			Topic:     req.Topic,
			Partition: req.Partition,
			Offset:    req.Offset,
			Max:       req.Max,
			From:      req.From,
			Epoch:     req.Epoch,
		})
		if err == nil {
			return appendRecordsFrame(out, r.HW, r.Epoch, r.Records), nil
		}
	default:
		resp = dispatchTransport(h.Node, req)
	}
	if err != nil {
		resp = failResp(resp, err)
	}
	return appendControlFrame(out, resp)
}
