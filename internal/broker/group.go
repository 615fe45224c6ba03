package broker

import (
	"fmt"
	"sort"
)

// TopicPartition names one partition of one topic.
type TopicPartition struct {
	Topic     string
	Partition int
}

// Assignment is the set of partitions a group member owns, with the
// group generation it was computed at.
type Assignment struct {
	MemberID   string
	Generation int
	Partitions []TopicPartition
}

// group coordinates a consumer group: membership, generation counting and
// range partition assignment, mirroring Kafka's group coordinator.
type group struct {
	name       string
	generation int
	nextMember int
	members    []string        // sorted member ids
	topics     map[string]bool // union of subscriptions
	assignment map[string][]TopicPartition
	committed  map[TopicPartition]int64
}

// group returns the named group, creating it on first use, through the
// broker's gate.
func (b *Broker) group(name string) (*group, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.gateLocked(); err != nil {
		return nil, err
	}
	g, ok := b.groups[name]
	if !ok {
		g = &group{
			name:       name,
			topics:     make(map[string]bool),
			assignment: make(map[string][]TopicPartition),
			committed:  make(map[TopicPartition]int64),
		}
		b.groups[name] = g
	}
	return g, nil
}

// JoinGroup adds a member subscribing to the given topics and returns its
// assignment. Every join bumps the group generation, invalidating
// assignments held by other members until they rejoin (they observe
// errRebalance from FetchAssignment).
func (b *Broker) JoinGroup(groupName string, topics []string) (Assignment, error) {
	for _, t := range topics {
		if _, err := b.Partitions(t); err != nil {
			return Assignment{}, err
		}
	}
	g, err := b.group(groupName)
	if err != nil {
		return Assignment{}, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	member := fmt.Sprintf("%s-member-%d", groupName, g.nextMember)
	g.nextMember++
	g.members = append(g.members, member)
	sort.Strings(g.members)
	for _, t := range topics {
		g.topics[t] = true
	}
	if err := b.rebalanceLocked(g); err != nil {
		return Assignment{}, err
	}
	return Assignment{MemberID: member, Generation: g.generation, Partitions: g.assignment[member]}, nil
}

// LeaveGroup removes a member and triggers a rebalance.
func (b *Broker) LeaveGroup(groupName, memberID string) error {
	g, err := b.group(groupName)
	if err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	idx := -1
	for i, m := range g.members {
		if m == memberID {
			idx = i
			break
		}
	}
	if idx == -1 {
		return fmt.Errorf("%w: %s in group %s", errUnknownMember, memberID, groupName)
	}
	g.members = append(g.members[:idx], g.members[idx+1:]...)
	return b.rebalanceLocked(g)
}

// FetchAssignment returns the member's current assignment. If the group
// generation moved past the member's, it returns errRebalance and the
// member must adopt the new assignment it receives.
func (b *Broker) FetchAssignment(groupName, memberID string, generation int) (Assignment, error) {
	g, err := b.group(groupName)
	if err != nil {
		return Assignment{}, err
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	parts, ok := g.assignment[memberID]
	if !ok {
		return Assignment{}, fmt.Errorf("%w: %s in group %s", errUnknownMember, memberID, groupName)
	}
	a := Assignment{MemberID: memberID, Generation: g.generation, Partitions: parts}
	if generation != g.generation {
		return a, errRebalance
	}
	return a, nil
}

// CommitOffset records the next offset a group will consume from a
// partition.
func (b *Broker) CommitOffset(groupName string, tp TopicPartition, offset int64) error {
	if offset < 0 {
		return fmt.Errorf("broker: negative commit offset %d", offset)
	}
	g, err := b.group(groupName)
	if err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	g.committed[tp] = offset
	return nil
}

// CommittedOffset returns the committed offset for a partition, or 0 when
// the group never committed.
func (b *Broker) CommittedOffset(groupName string, tp TopicPartition) (int64, error) {
	g, err := b.group(groupName)
	if err != nil {
		return 0, err
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	return g.committed[tp], nil
}

// rebalanceLocked recomputes the range assignment. Caller holds b.mu.
func (b *Broker) rebalanceLocked(g *group) error {
	g.generation++
	g.assignment = make(map[string][]TopicPartition, len(g.members))
	for _, m := range g.members {
		g.assignment[m] = nil
	}
	if len(g.members) == 0 {
		return nil
	}
	topics := make([]string, 0, len(g.topics))
	for t := range g.topics {
		topics = append(topics, t)
	}
	sort.Strings(topics)
	for _, t := range topics {
		tp, ok := b.topics[t]
		if !ok {
			return fmt.Errorf("%w: %q", errUnknownTopic, t)
		}
		n := len(tp.parts)
		per := n / len(g.members)
		extra := n % len(g.members)
		p := 0
		for i, m := range g.members {
			take := per
			if i < extra {
				take++
			}
			for j := 0; j < take; j++ {
				g.assignment[m] = append(g.assignment[m], TopicPartition{Topic: t, Partition: p})
				p++
			}
		}
	}
	return nil
}
