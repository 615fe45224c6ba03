// Package broker implements the publish-subscribe message broker Crayfish
// uses to decouple the input producer, the system under test, and the
// output consumer (§3.5 "Message Brokers"). It is a Kafka analogue:
// partitioned append-only topic logs, producer/consumer clients, consumer
// groups with rebalancing, committed offsets, and broker-side append
// timestamps (Kafka's LogAppendTime), served either in-process or over TCP.
package broker

import "time"

// Record is one message in a partition log.
type Record struct {
	// key routes the record to a partition when non-empty.
	key []byte
	// Value is the payload.
	Value []byte
	// Timestamp is the producer-side creation time (CreateTime).
	Timestamp time.Time
	// AppendTime is the broker-side log append time (LogAppendTime).
	// Crayfish uses it as the end-to-end measurement end point (§3.3).
	AppendTime time.Time
	// Partition and Offset locate the record once appended.
	Partition int
	Offset    int64
}
