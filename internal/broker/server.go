package broker

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"time"

	"crayfish/internal/grpcish"
	"crayfish/internal/resilience"
)

// Wire protocol. It runs on grpcish's TCP substrate: its listener, its
// connection pool and its framing, `uint32 big-endian length | body` with
// the body at most grpcish.MaxFrame bytes. Requests and responses
// alternate synchronously per connection; clients open multiple
// connections for parallelism. There is no negotiation:
//
//	body    = tag byte | payload
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
// serve the cluster ops (replica_fetch, push_view); client traffic
// leaves them zero.
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
// preserves errRebalance; NotLeader/View serve the cluster ops.
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
// response frame the handler appends. A *Broker is one; tests wrap it.
type requestHandler interface {
	Produce(topic string, partition int, recs []Record) (int64, error)
	MultiFetcherInto
	Await(topic string, positions []FetchRequest, wait time.Duration, cancel <-chan struct{}) error
	control(req *wireRequest, out []byte) ([]byte, error)
}

// Server is a broker served over TCP: Addr returns the bound listen
// address, and Close stops the listener and all connections, waking the
// awaits parked on them.
type Server = grpcish.Listener

// maxAwait bounds how long one 'W' frame may park its connection's
// goroutine, whatever the peer asks for.
const maxAwait = time.Second

// Serve starts a TCP server for the broker on addr (e.g. "127.0.0.1:0")
// and returns once the listener is bound. It serves the Transport ops
// and the cluster ops (ping, metadata, push_view, log_end,
// admit_follower, replica_fetch).
func Serve(b *Broker, addr string) (*Server, error) {
	return serveHandler(b, addr)
}

func serveHandler(h requestHandler, addr string) (*Server, error) {
	return grpcish.Listen(addr, func(conn net.Conn, br *bufio.Reader, done <-chan struct{}) {
		c := serverConn{h: h, cancel: done}
		c.run(conn, br)
	})
}

// serverConn is one connection's reusable state. cancel is the
// listener's done channel, closed when the server shuts down: the cancel
// of every await parked on the connection's goroutine. buf holds a
// record-free request payload and then the response frame: a decoder
// copies what it keeps of such a payload (topic, positions) before the
// response overwrites it, and a payload that can hold a record never
// lands in buf (keepsRecords). recs is the decoded produce batch or the
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

// run answers the request frames of one connection until it fails.
func (c *serverConn) run(conn net.Conn, br *bufio.Reader) {
	for {
		body, err := grpcish.ReadFrame(br, &c.buf, keepsRecords)
		if err != nil {
			return
		}
		if err := c.serve(body[0], body[1:]); err != nil {
			return
		}
		// The record buffer must not keep the last frame's keys and
		// values alive while the connection idles.
		clear(c.recs)
		if err := grpcish.WriteFrame(conn, c.buf); err != nil {
			return
		}
	}
}

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
	resp.Rebalance = errors.Is(err, errRebalance)
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

// control answers one control request: a Transport op that carries no
// records, or a cluster op from the controller or a peer node.
func (b *Broker) control(req *wireRequest, out []byte) ([]byte, error) {
	resp := &wireResponse{}
	var err error
	switch req.Op {
	case "create_topic":
		err = b.CreateTopic(req.Topic, req.Partitions)
	case "delete_topic":
		err = b.DeleteTopic(req.Topic)
	case "partitions":
		resp.Count, err = b.Partitions(req.Topic)
	case "end_offset":
		resp.Offset, err = b.EndOffset(req.Topic, req.Partition)
	case "join_group":
		var a Assignment
		if a, err = b.JoinGroup(req.Group, req.Topics); err == nil {
			resp.Assignment = &a
		}
	case "leave_group":
		err = b.LeaveGroup(req.Group, req.Member)
	case "fetch_assignment":
		// Sent with its error too: errRebalance carries the assignment.
		var a Assignment
		a, err = b.FetchAssignment(req.Group, req.Member, req.Generation)
		resp.Assignment = &a
	case "commit_offset":
		if req.TP == nil {
			err = fmt.Errorf("broker: commit_offset missing tp")
		} else {
			err = b.CommitOffset(req.Group, *req.TP, req.Offset)
		}
	case "committed_offset":
		if req.TP == nil {
			err = fmt.Errorf("broker: committed_offset missing tp")
		} else {
			resp.Offset, err = b.CommittedOffset(req.Group, *req.TP)
		}
	case "ping":
		err = b.Ping()
	case "metadata":
		var v ClusterView
		if v, err = b.ClusterView(); err == nil {
			resp.View = &v
		}
	case "push_view":
		if req.View == nil {
			err = fmt.Errorf("broker: push_view missing view")
		} else {
			err = b.PushView(*req.View)
		}
	case "log_end":
		resp.Offset, err = b.LogEnd(TopicPartition{Topic: req.Topic, Partition: req.Partition})
	case "admit_follower":
		resp.Admitted, err = b.AdmitFollower(TopicPartition{Topic: req.Topic, Partition: req.Partition}, req.From, req.Epoch)
	case "replica_fetch":
		// The one control op answered with a records frame.
		var r replicaFetchResponse
		r, err = b.ReplicaFetch(replicaFetchRequest{
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
		err = fmt.Errorf("broker: unknown op %q", req.Op)
	}
	if err != nil {
		resp = failResp(resp, err)
	}
	return appendControlFrame(out, resp)
}
