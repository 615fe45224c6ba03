package broker

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestJoinGroupAssignsAllPartitionsOnce(t *testing.T) {
	b := newTestBroker(t)
	a1, err := b.JoinGroup("g", []string{"in"})
	if err != nil {
		t.Fatal(err)
	}
	if len(a1.Partitions) != 4 {
		t.Fatalf("single member got %v", a1.Partitions)
	}
	a2, err := b.JoinGroup("g", []string{"in"})
	if err != nil {
		t.Fatal(err)
	}
	if a2.Generation <= a1.Generation {
		t.Fatalf("generation did not advance: %d then %d", a1.Generation, a2.Generation)
	}
	// First member must observe the rebalance and its halved assignment.
	na1, err := b.FetchAssignment("g", a1.MemberID, a1.Generation)
	if !errors.Is(err, ErrRebalance) {
		t.Fatalf("stale generation fetch: %v", err)
	}
	if len(na1.Partitions)+len(a2.Partitions) != 4 {
		t.Fatalf("partitions not fully assigned: %v + %v", na1.Partitions, a2.Partitions)
	}
	seen := map[TopicPartition]bool{}
	for _, tp := range append(append([]TopicPartition{}, na1.Partitions...), a2.Partitions...) {
		if seen[tp] {
			t.Fatalf("partition %v assigned twice", tp)
		}
		seen[tp] = true
	}
}

func TestJoinGroupUnknownTopic(t *testing.T) {
	b := newTestBroker(t)
	if _, err := b.JoinGroup("g", []string{"missing"}); !errors.Is(err, ErrUnknownTopic) {
		t.Fatalf("join with unknown topic: %v", err)
	}
}

func TestLeaveGroupRebalances(t *testing.T) {
	b := newTestBroker(t)
	a1, err := b.JoinGroup("g", []string{"in"})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := b.JoinGroup("g", []string{"in"})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.LeaveGroup("g", a1.MemberID); err != nil {
		t.Fatal(err)
	}
	na2, err := b.FetchAssignment("g", a2.MemberID, a2.Generation)
	if !errors.Is(err, ErrRebalance) {
		t.Fatalf("fetch after leave: %v", err)
	}
	if len(na2.Partitions) != 4 {
		t.Fatalf("survivor owns %v, want all 4", na2.Partitions)
	}
	if err := b.LeaveGroup("g", a1.MemberID); !errors.Is(err, ErrUnknownMember) {
		t.Fatalf("double leave: %v", err)
	}
}

func TestCommitAndFetchOffsets(t *testing.T) {
	b := newTestBroker(t)
	tp := TopicPartition{Topic: "in", Partition: 1}
	off, err := b.CommittedOffset("g", tp)
	if err != nil || off != 0 {
		t.Fatalf("initial committed = %d, %v", off, err)
	}
	if err := b.CommitOffset("g", tp, 7); err != nil {
		t.Fatal(err)
	}
	off, err = b.CommittedOffset("g", tp)
	if err != nil || off != 7 {
		t.Fatalf("committed = %d, %v", off, err)
	}
	if err := b.CommitOffset("g", tp, -1); err == nil {
		t.Fatal("negative commit accepted")
	}
}

func TestGroupAssignmentPartitionProperty(t *testing.T) {
	// For any member count, the range assignment covers every partition
	// exactly once and spreads sizes within one of each other.
	f := func(membersRaw, partsRaw uint8) bool {
		members := int(membersRaw)%6 + 1
		parts := int(partsRaw)%12 + 1
		b := New(Config{})
		if err := b.CreateTopic("t", parts); err != nil {
			return false
		}
		var last Assignment
		for i := 0; i < members; i++ {
			a, err := b.JoinGroup("g", []string{"t"})
			if err != nil {
				return false
			}
			last = a
		}
		seen := map[int]bool{}
		sizes := []int{}
		g := b.group("g")
		b.mu.RLock()
		defer b.mu.RUnlock()
		if g.generation != last.Generation {
			return false
		}
		for _, ps := range g.assignment {
			sizes = append(sizes, len(ps))
			for _, tp := range ps {
				if seen[tp.Partition] {
					return false
				}
				seen[tp.Partition] = true
			}
		}
		if len(seen) != parts {
			return false
		}
		min, max := parts, 0
		for _, s := range sizes {
			if s < min {
				min = s
			}
			if s > max {
				max = s
			}
		}
		return max-min <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestGroupConsumerEndToEnd(t *testing.T) {
	b := newTestBroker(t)
	p, err := NewProducer(b, "in")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, _, err := p.Send(nil, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	c1, err := NewGroupConsumer(b, "g", "in")
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for i := 0; i < 10 && got < 8; i++ {
		recs, err := c1.Poll(4, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		got += len(recs)
	}
	if got != 8 {
		t.Fatalf("consumed %d, want 8", got)
	}
	if err := c1.Commit(); err != nil {
		t.Fatal(err)
	}

	// A second member joining splits the assignment; c1 adapts on poll.
	c2, err := NewGroupConsumer(b, "g", "in")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Poll(1, 0, nil); err != nil {
		t.Fatalf("poll across rebalance: %v", err)
	}
	if len(c1.Assignment())+len(c2.Assignment()) != 4 {
		t.Fatalf("assignments %v + %v", c1.Assignment(), c2.Assignment())
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestGroupConsumerResumesFromCommitted(t *testing.T) {
	b := New(Config{})
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Produce("t", 0, []Record{{Value: []byte("a")}, {Value: []byte("b")}}); err != nil {
		t.Fatal(err)
	}
	c1, err := NewGroupConsumer(b, "g", "t")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := c1.Poll(1, 0, nil)
	if err != nil || len(recs) != 1 {
		t.Fatalf("first poll: %v, %v", recs, err)
	}
	if err := c1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	// A fresh member resumes after the committed record.
	c2, err := NewGroupConsumer(b, "g", "t")
	if err != nil {
		t.Fatal(err)
	}
	recs, err = c2.Poll(5, 0, nil)
	if err != nil || len(recs) != 1 || string(recs[0].Value) != "b" {
		t.Fatalf("resumed poll = %v, %v", recs, err)
	}
}
