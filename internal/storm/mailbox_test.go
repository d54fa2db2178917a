package storm

import (
	"sync/atomic"
	"testing"
)

// TestMailboxZeroesAndCompacts pins the mailbox's memory behavior: consumed
// slots must not keep their envelope payloads reachable, and a drained
// mailbox restarts at the front of its slice, dropping oversized backing
// arrays — a long-running service's mailboxes otherwise pin every tagset
// slice and coefficient batch that ever passed through them.
// testMailbox returns a mailbox wired to a standalone Stats so tests can
// also observe the depth/compaction telemetry.
func testMailbox() *mailbox {
	return newMailbox(&Stats{mailboxHW: make([]atomic.Int64, 1)}, 0)
}

func TestMailboxZeroesAndCompacts(t *testing.T) {
	m := testMailbox()
	payload := func(i int) envelope {
		return envelope{to: TaskID(i), t: Tuple{Stream: "s", Values: []interface{}{i}}}
	}
	for i := 0; i < 3; i++ {
		m.put(payload(i))
	}
	for i := 0; i < 2; i++ {
		e, ok := m.get()
		if !ok || e.t.Values[0].(int) != i {
			t.Fatalf("get %d = %+v, %v", i, e, ok)
		}
	}
	m.mu.Lock()
	if m.head != 2 {
		t.Fatalf("head = %d after 2 gets", m.head)
	}
	for i := 0; i < m.head; i++ {
		if m.items[i].t.Values != nil {
			t.Errorf("consumed slot %d still pins its payload", i)
		}
	}
	m.mu.Unlock()

	if e, ok := m.get(); !ok || e.t.Values[0].(int) != 2 {
		t.Fatalf("final get = %+v, %v", e, ok)
	}
	m.mu.Lock()
	if len(m.items) != 0 || m.head != 0 {
		t.Errorf("drained mailbox not reset: len=%d head=%d", len(m.items), m.head)
	}
	m.mu.Unlock()

	// An oversized backlog drops its backing array once drained.
	for i := 0; i < 5000; i++ {
		m.put(payload(i))
	}
	for i := 0; i < 5000; i++ {
		if e, ok := m.get(); !ok || e.t.Values[0].(int) != i {
			t.Fatalf("backlog get %d broke: %+v, %v", i, e, ok)
		}
	}
	m.mu.Lock()
	if cap(m.items) != 0 {
		t.Errorf("oversized backing array kept after drain: cap=%d", cap(m.items))
	}
	m.mu.Unlock()

	m.close()
	if _, ok := m.get(); ok {
		t.Error("closed empty mailbox still yields")
	}
}

// TestMailboxCompactsUnderSteadyBacklog: a mailbox that never momentarily
// drains must still reclaim its consumed prefix — the live window slides to
// the front once the dead prefix dominates, so memory tracks the queued
// tuples, not every tuple ever delivered.
func TestMailboxCompactsUnderSteadyBacklog(t *testing.T) {
	m := testMailbox()
	payload := func(i int) envelope {
		return envelope{t: Tuple{Values: []interface{}{i}}}
	}
	const total = 6000
	next := 0
	for i := 0; i < total; i++ {
		m.put(payload(i))
	}
	// Consume with the queue always non-empty: leave a live tail.
	for next < total-100 {
		e, ok := m.get()
		if !ok || e.t.Values[0].(int) != next {
			t.Fatalf("get %d = %+v, %v (order broken across compactions)", next, e, ok)
		}
		next++
		m.mu.Lock()
		if m.head >= 1024 && m.head*2 >= len(m.items) {
			t.Fatalf("dead prefix not reclaimed: head=%d len=%d", m.head, len(m.items))
		}
		m.mu.Unlock()
	}
	m.mu.Lock()
	if len(m.items) >= total {
		t.Errorf("backing slice never shrank: len=%d after consuming %d", len(m.items), next)
	}
	m.mu.Unlock()
	// Interleave puts to prove ordering survives compaction boundaries.
	for i := 0; i < 50; i++ {
		m.put(payload(total + i))
	}
	for next < total+50 {
		e, ok := m.get()
		if !ok || e.t.Values[0].(int) != next {
			t.Fatalf("get %d = %+v, %v", next, e, ok)
		}
		next++
	}
	m.mu.Lock()
	if len(m.items) != 0 || m.head != 0 {
		t.Errorf("fully drained mailbox not reset: len=%d head=%d", len(m.items), m.head)
	}
	m.mu.Unlock()
	if m.stats.MailboxCompactions() == 0 {
		t.Error("steady-backlog compactions were not counted")
	}
	if hw := m.stats.mailboxHW[0].Load(); hw < total {
		t.Errorf("mailbox high-water %d, want >= %d", hw, total)
	}
}
