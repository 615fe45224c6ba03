package ray

import (
	"fmt"
	"sync"
)

// objectRef names a value in the object store.
type objectRef uint64

// objectStore is the Ray-analogue shared object store: every message
// between actors is serialised into the store by the sender and fetched
// (and released) by the receiver, paying the two copies and the shared-
// store synchronisation Ray pays for inter-actor data movement.
type objectStore struct {
	mu      sync.Mutex
	next    objectRef
	objects map[objectRef][]byte
}

// newObjectStore returns an empty store.
func newObjectStore() *objectStore {
	return &objectStore{objects: make(map[objectRef][]byte)}
}

// put copies value into the store and returns its ref.
func (s *objectStore) put(value []byte) objectRef {
	buf := make([]byte, len(value))
	copy(buf, value)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.next++
	ref := s.next
	s.objects[ref] = buf
	return ref
}

// get copies the value out of the store and releases the ref. Refs are
// single-consumer in the pipeline topology.
func (s *objectStore) get(ref objectRef) ([]byte, error) {
	s.mu.Lock()
	buf, ok := s.objects[ref]
	if ok {
		delete(s.objects, ref)
	}
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("ray: object %d not found", ref)
	}
	out := make([]byte, len(buf))
	copy(out, buf)
	return out, nil
}

// mailbox is an actor's bounded message queue, carrying object refs.
type mailbox chan objectRef

// actor is a processing actor: a mailbox, and a behaviour the job runs
// as one of its operators.
type actor struct {
	Inbox mailbox
	store *objectStore
}

// send serialises value into the object store and delivers its ref to the
// target's mailbox.
func (a *actor) send(to *actor, value []byte) {
	to.Inbox <- a.store.put(value)
}

// recv takes the next message from the mailbox and materialises it from
// the object store. ok is false once the mailbox is closed and drained.
func (a *actor) recv() (value []byte, ok bool, err error) {
	ref, ok := <-a.Inbox
	if !ok {
		return nil, false, nil
	}
	value, err = a.store.get(ref)
	return value, true, err
}
