package broker

import "sync"

// Transport stands in for the broker's transport: its exported methods
// are round trips when it is remote.
type Transport interface{ CommitOffset(offset int64) error }

// Consumer guards its position with mu.
type Consumer struct {
	mu  sync.Mutex
	t   Transport
	pos int64
}

// Commit holds the lock across a round trip.
func (c *Consumer) Commit() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t.CommitOffset(c.pos) // want lockdiscipline
}

// Seek calls only an unexported, in-process helper under the lock.
func (c *Consumer) Seek(pos int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seek(pos)
}

func (c *Consumer) seek(pos int64) { c.pos = pos }
