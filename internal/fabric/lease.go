package fabric

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"comfase/internal/obs"
)

// Lease state-machine errors. ErrStaleLease is the generation-counter
// rejection: the operation named a lease that has been superseded (the
// range expired and was re-granted, or already completed). Callers treat
// it as an idempotent "your work is no longer wanted", not a failure.
var (
	ErrStaleLease   = errors.New("fabric: stale lease")
	ErrUnknownChunk = errors.New("fabric: unknown chunk")
)

// chunkState is one range's position in the lease lifecycle.
type chunkState uint8

const (
	chunkPending chunkState = iota // never granted, or returned after expiry
	chunkLeased                    // granted to a worker, TTL running
	chunkDone                      // results accepted and merged
)

// chunk is one contiguous grid range [from, to) and its lease bookkeeping.
type chunk struct {
	from, to int
	state    chunkState
	// gen increments on every grant. A report or completion must present
	// the current generation; anything older is a late message from a
	// presumed-dead worker and is rejected with ErrStaleLease.
	gen     uint64
	worker  string
	expires time.Time
}

// Lease is a granted range in the table's terms.
type Lease struct {
	Chunk    int
	From, To int
	Gen      uint64
}

// AcquireStatus explains an Acquire outcome that granted nothing.
type AcquireStatus int

const (
	// AcquireGranted: the returned Lease is valid.
	AcquireGranted AcquireStatus = iota
	// AcquireEmpty: nothing pending right now, but outstanding leases
	// may expire and re-pend — ask again later.
	AcquireEmpty
	// AcquireDone: every chunk is done; the campaign is complete.
	AcquireDone
	// AcquireDraining: the table is draining and grants nothing new.
	AcquireDraining
)

// LeaseTable is the coordinator's range ledger: the campaign grid cut
// into contiguous chunks, each walked through pending → leased → done
// with TTL-based liveness. All methods are safe for concurrent use. The
// clock is injectable so the expiry paths are unit-testable without
// sleeping.
type LeaseTable struct {
	mu       sync.Mutex
	chunks   []chunk
	ttl      time.Duration
	now      func() time.Time
	draining bool
	done     int // count of chunkDone

	// Metrics (nil-safe; no-ops without a registry).
	granted  *obs.Counter // leases handed out
	expired  *obs.Counter // leases returned to pending by TTL expiry
	released *obs.Counter // grants of a chunk that had been granted before
	stale    *obs.Counter // operations rejected by the generation counter
	pendingG *obs.Gauge
	leasedG  *obs.Gauge
	doneG    *obs.Gauge
}

// NewLeaseTable cuts the grid [base, base+total) into ceil(total/size)
// contiguous chunks of at most size points each. ttl must be positive;
// now may be nil for the wall clock; reg may be nil.
func NewLeaseTable(base, total, size int, ttl time.Duration, now func() time.Time, reg *obs.Registry) (*LeaseTable, error) {
	if total <= 0 {
		return nil, fmt.Errorf("fabric: lease table needs a non-empty grid (total %d)", total)
	}
	if size <= 0 {
		return nil, fmt.Errorf("fabric: lease size %d must be positive", size)
	}
	if ttl <= 0 {
		return nil, fmt.Errorf("fabric: lease TTL %v must be positive", ttl)
	}
	if now == nil {
		now = time.Now
	}
	t := &LeaseTable{
		ttl:      ttl,
		now:      now,
		granted:  reg.Counter("fabric.leases_granted"),
		expired:  reg.Counter("fabric.leases_expired"),
		released: reg.Counter("fabric.leases_released"),
		stale:    reg.Counter("fabric.stale_rejected"),
		pendingG: reg.Gauge("fabric.chunks_pending"),
		leasedG:  reg.Gauge("fabric.chunks_leased"),
		doneG:    reg.Gauge("fabric.chunks_done"),
	}
	for from := base; from < base+total; from += size {
		to := from + size
		if to > base+total {
			to = base + total
		}
		t.chunks = append(t.chunks, chunk{from: from, to: to})
	}
	t.pendingG.Set(int64(len(t.chunks)))
	return t, nil
}

// NumChunks is the number of ranges in the table.
func (t *LeaseTable) NumChunks() int { return len(t.chunks) }

// Bounds returns chunk c's current [from, to) interval.
func (t *LeaseTable) Bounds(c int) (from, to int, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if c < 0 || c >= len(t.chunks) {
		return 0, 0, ErrUnknownChunk
	}
	return t.chunks[c].from, t.chunks[c].to, nil
}

// MarkDonePrefix marks every chunk entirely below nr done and trims the
// straddling chunk's lower bound to nr — the resume path: grid points
// below nr are already on disk from a previous coordinator incarnation
// (the release frontier writes a contiguous prefix, so "done so far" is
// always describable as a prefix).
func (t *LeaseTable) MarkDonePrefix(nr int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.chunks {
		c := &t.chunks[i]
		switch {
		case c.to <= nr:
			if c.state != chunkDone {
				c.state = chunkDone
				t.done++
			}
		case c.from < nr:
			c.from = nr
		}
	}
	t.syncGauges()
}

// Acquire grants the lowest pending chunk to worker. Expired leases are
// swept first, so a dead worker's range is re-granted here even if the
// background sweeper has not run yet.
func (t *LeaseTable) Acquire(worker string) (Lease, AcquireStatus) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sweepLocked()
	if t.done == len(t.chunks) {
		return Lease{}, AcquireDone
	}
	if t.draining {
		return Lease{}, AcquireDraining
	}
	for i := range t.chunks {
		c := &t.chunks[i]
		if c.state != chunkPending {
			continue
		}
		if c.gen > 0 {
			t.released.Inc() // this range had been granted before: a re-lease
		}
		c.state = chunkLeased
		c.gen++
		c.worker = worker
		c.expires = t.now().Add(t.ttl)
		t.granted.Inc()
		t.syncGauges()
		return Lease{Chunk: i, From: c.from, To: c.to, Gen: c.gen}, AcquireGranted
	}
	return Lease{}, AcquireEmpty
}

// Renew extends the lease's TTL. The (chunk, gen) pair must name the
// current lease; a superseded generation — or a chunk no longer leased —
// yields ErrStaleLease, telling a worker its range has moved on without it.
func (t *LeaseTable) Renew(worker string, chunkIdx int, gen uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	c, err := t.currentLocked(worker, chunkIdx, gen)
	if err != nil {
		return err
	}
	c.expires = t.now().Add(t.ttl)
	return nil
}

// Complete marks the lease's range done. Same staleness rules as Renew:
// a late completion from a presumed-dead worker is rejected with
// ErrStaleLease and changes nothing — the re-leased execution's results
// are the ones that count, so every range is merged exactly once.
func (t *LeaseTable) Complete(worker string, chunkIdx int, gen uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	c, err := t.currentLocked(worker, chunkIdx, gen)
	if err != nil {
		return err
	}
	c.state = chunkDone
	c.worker = ""
	t.done++
	t.syncGauges()
	return nil
}

// currentLocked resolves (worker, chunk, gen) to the live lease or the
// appropriate rejection. Expiry is checked lazily here too: an operation
// arriving after the TTL ran out is already stale even if no sweep or
// re-grant has happened, which keeps "expired" deterministic for tests
// driving a fake clock.
func (t *LeaseTable) currentLocked(worker string, chunkIdx int, gen uint64) (*chunk, error) {
	if chunkIdx < 0 || chunkIdx >= len(t.chunks) {
		return nil, ErrUnknownChunk
	}
	c := &t.chunks[chunkIdx]
	if c.state != chunkLeased || c.gen != gen || c.worker != worker {
		t.stale.Inc()
		return nil, fmt.Errorf("%w: chunk %d gen %d (worker %s)", ErrStaleLease, chunkIdx, gen, worker)
	}
	if t.now().After(c.expires) {
		t.expireLocked(c)
		t.stale.Inc()
		return nil, fmt.Errorf("%w: chunk %d gen %d expired", ErrStaleLease, chunkIdx, gen)
	}
	return c, nil
}

// Sweep returns every expired lease to pending and reports how many it
// expired. The coordinator runs it periodically; Acquire also sweeps
// inline so a waiting worker never starves behind a dead one.
func (t *LeaseTable) Sweep() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sweepLocked()
}

func (t *LeaseTable) sweepLocked() int {
	n := 0
	nowT := t.now()
	for i := range t.chunks {
		c := &t.chunks[i]
		if c.state == chunkLeased && nowT.After(c.expires) {
			t.expireLocked(c)
			n++
		}
	}
	if n > 0 {
		t.syncGauges()
	}
	return n
}

// expireLocked returns one leased chunk to pending. The generation is
// NOT bumped here — it bumps on the next grant — so a worker that was
// merely slow fails its next renew with ErrStaleLease only after the
// range is genuinely re-granted or re-validated, and the "every grant
// has a unique generation" invariant stays trivially true.
func (t *LeaseTable) expireLocked(c *chunk) {
	c.state = chunkPending
	c.worker = ""
	t.expired.Inc()
}

// Drain stops all future grants; outstanding leases may still renew and
// complete. Draining is irreversible for the life of the table.
func (t *LeaseTable) Drain() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.draining = true
}

// Done reports whether every chunk completed.
func (t *LeaseTable) Done() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.done == len(t.chunks)
}

// Idle reports whether no chunk is currently leased — the drain exit
// condition ("finish what's leased, lease nothing new" has finished).
// Expired leases are swept first so a drain never waits on a dead worker
// longer than one TTL.
func (t *LeaseTable) Idle() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sweepLocked()
	for i := range t.chunks {
		if t.chunks[i].state == chunkLeased {
			return false
		}
	}
	return true
}

// DoneChunks reports how many chunks completed.
func (t *LeaseTable) DoneChunks() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.done
}

// syncGauges recomputes the state gauges; the caller holds t.mu.
func (t *LeaseTable) syncGauges() {
	var pending, leased int64
	for i := range t.chunks {
		switch t.chunks[i].state {
		case chunkPending:
			pending++
		case chunkLeased:
			leased++
		}
	}
	t.pendingG.Set(pending)
	t.leasedG.Set(leased)
	t.doneG.Set(int64(t.done))
}
