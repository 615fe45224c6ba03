package broker

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"crayfish/internal/grpcish"
	"crayfish/internal/resilience"
)

// RemoteClient is a Transport speaking the TCP wire protocol to a broker
// Server over a grpcish connection pool: each request checks a
// connection out for its synchronous round trip, so independent
// goroutines proceed in parallel (a parked Await holds its connection for
// the wait). Transport faults surface as typed, retryable
// grpcish.ErrUnavailable errors; WithRetry adds a retry policy on top.
// Note that retrying a Produce after a torn response may re-append
// records the broker already logged — delivery is at-least-once, and the
// output consumer's seen-set deduplicates.
type RemoteClient struct {
	pool    *grpcish.Pool
	timeout time.Duration
	retry   *resilience.Retry
}

// DialOption configures a RemoteClient.
type DialOption func(*RemoteClient)

// WithCallTimeout sets the per-round-trip deadline (default
// grpcish.DefaultCallTimeout), which bounds the dial too; d ≤ 0
// disables deadlines entirely.
func WithCallTimeout(d time.Duration) DialOption {
	return func(rc *RemoteClient) { rc.timeout = d }
}

// WithRetry retries transport failures (grpcish.ErrUnavailable) with the
// given policy; errors returned by the broker itself are never retried.
func WithRetry(r *resilience.Retry) DialOption {
	return func(rc *RemoteClient) { rc.retry = r }
}

// Dial connects to a broker server, validating connectivity eagerly so
// that misconfiguration fails fast.
func Dial(addr string, opts ...DialOption) (*RemoteClient, error) {
	rc := &RemoteClient{timeout: grpcish.DefaultCallTimeout}
	for _, o := range opts {
		o(rc)
	}
	pool, err := grpcish.DialPool(addr, rc.timeout, keepsRecords)
	if err != nil {
		return nil, err
	}
	rc.pool = pool
	return rc, nil
}

// Close tears down the connections, those of calls in flight included:
// such a call, which may be parked at the broker, returns errClosed.
func (rc *RemoteClient) Close() error { return rc.pool.Close() }

// roundTrip performs one synchronous request/response exchange under
// the client's resilience policy. enc appends the request frame to the
// connection's scratch; dec decodes a binary response frame (nil when
// only a control response is expected) and may keep slices of the
// payload it is given only when that payload can hold a record
// (keepsRecords). Transport faults (typed grpcish.ErrUnavailable,
// retryable) are retried; an error the broker itself returned proves it
// is up, so it is not retried and comes back with the control response
// that carried it. The deadline allows for a request the broker may sit
// on for up to park before it answers; when cancel closes first the
// exchange is abandoned and nothing is returned, no error either.
func (rc *RemoteClient) roundTrip(enc func(b []byte) []byte, dec func(tag byte, payload []byte) error, park time.Duration, cancel <-chan struct{}) (*wireResponse, error) {
	var resp *wireResponse
	err := rc.retry.Do(func() error {
		resp = nil
		return rc.pool.RoundTrip(enc, func(body []byte) (err error) {
			tag, payload := body[0], body[1:]
			switch {
			case tag == tagControl:
				resp = new(wireResponse)
				if err = json.Unmarshal(payload, resp); err == nil && dec != nil && resp.Err == "" {
					// Only the failure of an op answered in binary is a
					// control response.
					err = errMalformedFrame
				}
			case dec != nil:
				err = dec(tag, payload)
			default:
				err = errMalformedFrame
			}
			return err
		}, park, cancel)
	})
	// A closed client and an oversized frame answer as the broker does
	// in process.
	switch {
	case errors.Is(err, grpcish.ErrClosed):
		return nil, errClosed
	case errors.Is(err, grpcish.ErrFrameTooLarge):
		return nil, fmt.Errorf("%w: %w", errMessageTooLarge, err)
	case err != nil:
		return nil, err
	}
	if resp != nil && resp.Err != "" {
		return resp, decodeWireError(resp)
	}
	return resp, nil
}

// call is roundTrip for a control op: a JSON request answered by a JSON
// response.
func (rc *RemoteClient) call(req *wireRequest) (*wireResponse, error) {
	return rc.callDecoding(req, nil)
}

// callDecoding is call for the control op whose success is answered
// with a binary frame (replica_fetch).
func (rc *RemoteClient) callDecoding(req *wireRequest, dec func(tag byte, payload []byte) error) (*wireResponse, error) {
	frame, err := appendControlFrame(nil, req)
	if err != nil {
		return nil, err
	}
	return rc.roundTrip(func(b []byte) []byte { return append(b[:0], frame...) }, dec, 0, nil)
}

// decodeWireError reconstructs the typed error a broker or cluster node
// encoded into resp: errRebalance and NotLeaderError keep their errors.Is
// / errors.As identity, and Retryable restores the resilience marking so
// cluster clients re-route across the wire exactly as in-process.
func decodeWireError(resp *wireResponse) error {
	var err error
	switch {
	case resp.Rebalance:
		err = errRebalance
	case resp.NotLeader != nil:
		err = &NotLeaderError{
			TP:     TopicPartition{Topic: resp.NotLeader.Topic, Partition: resp.NotLeader.Partition},
			Leader: resp.NotLeader.Leader,
			Epoch:  resp.NotLeader.Epoch,
		}
	default:
		err = errors.New(resp.Err)
	}
	if resp.Retryable {
		err = resilience.MarkRetryable(err)
	}
	return err
}

// CreateTopic implements Transport.
func (rc *RemoteClient) CreateTopic(name string, partitions int) error {
	_, err := rc.call(&wireRequest{Op: "create_topic", Topic: name, Partitions: partitions})
	return err
}

// DeleteTopic implements Transport.
func (rc *RemoteClient) DeleteTopic(name string) error {
	_, err := rc.call(&wireRequest{Op: "delete_topic", Topic: name})
	return err
}

// Partitions implements Transport.
func (rc *RemoteClient) Partitions(topic string) (int, error) {
	resp, err := rc.call(&wireRequest{Op: "partitions", Topic: topic})
	if err != nil {
		return 0, err
	}
	return resp.Count, nil
}

// Produce implements Transport.
func (rc *RemoteClient) Produce(topic string, partition int, recs []Record) (int64, error) {
	var off int64
	_, err := rc.roundTrip(
		func(b []byte) []byte { return appendProduceFrame(b, topic, partition, recs) },
		func(tag byte, payload []byte) (err error) {
			off, err = decodeAck(tag, payload)
			return err
		}, 0, nil)
	if err != nil {
		return 0, err
	}
	return off, nil
}

// Fetch implements Transport.
func (rc *RemoteClient) Fetch(topic string, partition int, offset int64, max int) ([]Record, error) {
	return rc.FetchMultiInto(topic, []FetchRequest{{Partition: partition, Offset: offset}}, max, nil)
}

// FetchMulti implements Transport.
func (rc *RemoteClient) FetchMulti(topic string, reqs []FetchRequest, maxTotal int) ([]Record, error) {
	return rc.FetchMultiInto(topic, reqs, maxTotal, nil)
}

// FetchMultiInto implements MultiFetcherInto: the fetched records are
// appended to out, and their keys and values alias the one body the
// response frame was read into — nothing else is allocated, and nothing
// at all when the fetch comes back empty.
func (rc *RemoteClient) FetchMultiInto(topic string, reqs []FetchRequest, maxTotal int, out []Record) ([]Record, error) {
	base := len(out)
	_, err := rc.roundTrip(
		func(b []byte) []byte { return appendFetchFrame(b, topic, reqs, maxTotal) },
		func(tag byte, payload []byte) (err error) {
			// A retried exchange starts over from what the caller gave.
			out, _, _, err = decodeRecords(tag, payload, out[:base])
			return err
		}, 0, nil)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Await implements Transport with one 'W' frame that the server answers
// when the wait is over; the connection is the call's for that long. The
// wire carries whole milliseconds, rounded up.
func (rc *RemoteClient) Await(topic string, positions []FetchRequest, wait time.Duration, cancel <-chan struct{}) error {
	if wait <= 0 {
		return nil
	}
	waitMs := int64((wait + time.Millisecond - 1) / time.Millisecond)
	_, err := rc.roundTrip(
		func(b []byte) []byte { return appendAwaitFrame(b, topic, waitMs, positions) },
		func(tag byte, payload []byte) error {
			_, err := decodeAck(tag, payload)
			return err
		},
		wait, cancel)
	return err
}

// EndOffset implements Transport.
func (rc *RemoteClient) EndOffset(topic string, partition int) (int64, error) {
	resp, err := rc.call(&wireRequest{Op: "end_offset", Topic: topic, Partition: partition})
	if err != nil {
		return 0, err
	}
	return resp.Offset, nil
}

// JoinGroup implements Transport.
func (rc *RemoteClient) JoinGroup(group string, topics []string) (Assignment, error) {
	resp, err := rc.call(&wireRequest{Op: "join_group", Group: group, Topics: topics})
	if err != nil {
		return Assignment{}, err
	}
	if resp.Assignment == nil {
		return Assignment{}, fmt.Errorf("broker: join_group response missing assignment")
	}
	return *resp.Assignment, nil
}

// LeaveGroup implements Transport.
func (rc *RemoteClient) LeaveGroup(group, memberID string) error {
	_, err := rc.call(&wireRequest{Op: "leave_group", Group: group, Member: memberID})
	return err
}

// FetchAssignment implements Transport.
func (rc *RemoteClient) FetchAssignment(group, memberID string, generation int) (Assignment, error) {
	resp, err := rc.call(&wireRequest{Op: "fetch_assignment", Group: group, Member: memberID, Generation: generation})
	if resp != nil && resp.Assignment != nil {
		return *resp.Assignment, err
	}
	return Assignment{}, err
}

// CommitOffset implements Transport.
func (rc *RemoteClient) CommitOffset(group string, tp TopicPartition, offset int64) error {
	_, err := rc.call(&wireRequest{Op: "commit_offset", Group: group, TP: &tp, Offset: offset})
	return err
}

// CommittedOffset implements Transport.
func (rc *RemoteClient) CommittedOffset(group string, tp TopicPartition) (int64, error) {
	resp, err := rc.call(&wireRequest{Op: "committed_offset", Group: group, TP: &tp})
	if err != nil {
		return 0, err
	}
	return resp.Offset, nil
}

// Ping implements ClusterPeer: a liveness probe against a cluster node.
func (rc *RemoteClient) Ping() error {
	_, err := rc.call(&wireRequest{Op: "ping"})
	return err
}

// PushView implements ClusterPeer: the controller installs metadata on
// a remote node.
func (rc *RemoteClient) PushView(v ClusterView) error {
	_, err := rc.call(&wireRequest{Op: "push_view", View: &v})
	return err
}

// ReplicaFetch implements ClusterPeer: a follower pulls records from
// the remote leader.
func (rc *RemoteClient) ReplicaFetch(req replicaFetchRequest) (replicaFetchResponse, error) {
	var r replicaFetchResponse
	_, err := rc.callDecoding(&wireRequest{
		Op:        "replica_fetch",
		Topic:     req.Topic,
		Partition: req.Partition,
		Offset:    req.Offset,
		Max:       req.Max,
		From:      req.From,
		Epoch:     req.Epoch,
	}, func(tag byte, payload []byte) (err error) {
		r.Records, r.HW, r.Epoch, err = decodeRecords(tag, payload, nil)
		return err
	})
	if err != nil {
		return replicaFetchResponse{}, err
	}
	return r, nil
}

// AdmitFollower implements ClusterPeer: the controller asks a remote
// leader to confirm a follower's catch-up before expanding the ISR.
func (rc *RemoteClient) AdmitFollower(tp TopicPartition, follower, epoch int) (bool, error) {
	resp, err := rc.call(&wireRequest{Op: "admit_follower", Topic: tp.Topic, Partition: tp.Partition, From: follower, Epoch: epoch})
	if err != nil {
		return false, err
	}
	return resp.Admitted, nil
}

// LogEnd implements ClusterPeer: the raw local log end (not the
// high-watermark) the controller compares during election.
func (rc *RemoteClient) LogEnd(tp TopicPartition) (int64, error) {
	resp, err := rc.call(&wireRequest{Op: "log_end", Topic: tp.Topic, Partition: tp.Partition})
	if err != nil {
		return 0, err
	}
	return resp.Offset, nil
}

// ClusterView implements Transport: cluster metadata discovery.
func (rc *RemoteClient) ClusterView() (ClusterView, error) {
	resp, err := rc.call(&wireRequest{Op: "metadata"})
	if err != nil {
		return ClusterView{}, err
	}
	if resp.View == nil {
		return ClusterView{}, fmt.Errorf("broker: metadata response missing view")
	}
	return *resp.View, nil
}

var (
	_ Transport   = (*RemoteClient)(nil)
	_ ClusterPeer = (*RemoteClient)(nil)
)
