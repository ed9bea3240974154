// Package sched is the cell-level scheduling core shared by the local
// execution path (the pkg/vexsmt Service) and the distributed
// coordinator (pkg/vexsmt/shard). It replaces the two parallel fan-out
// implementations that used to live in those layers — a worker pool over
// grid indices and a shard-level placement loop — with one work-stealing
// queue scheduler that is generic over the item and result types, so it
// depends on neither the simulation vocabulary nor the transport.
//
// The unit of scheduling is a single item (for the simulator: one grid
// cell, never a shard). Items are dealt round-robin across the backends'
// queues, each backend runs as many workers as it has Slots, and an idle
// backend steals queued items from the tail of the longest other queue —
// so a straggling backend sheds its backlog to whoever is free instead of
// serializing the run. A transient failure re-enqueues the item on a
// backend that has not yet failed it (bounded by Options.Retries);
// failures marked Permanent are delivered immediately, because every
// backend would reproduce them. A backend that keeps failing is taken out
// of rotation while at least one other backend stays live.
//
// The scheduler never reorders results semantically: delivery order is
// nondeterministic, but which backend runs an item cannot change the
// item's result — that property is the caller's contract (per-cell seeds,
// content-addressed caching), and it is what makes stealing and failover
// invisible in the output.
package sched

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"
)

// Backend runs items. Implementations must honor ctx cancellation and
// return promptly once it fires.
type Backend[T, R any] interface {
	// Name identifies the backend in logs and results.
	Name() string
	// Slots is how many items may run concurrently on this backend;
	// values below 1 are treated as 1.
	Slots() int
	// Run executes one item to completion.
	Run(ctx context.Context, item T) (R, error)
}

// NewFunc adapts a function to a Backend.
func NewFunc[T, R any](name string, slots int, fn func(ctx context.Context, item T) (R, error)) Backend[T, R] {
	return &funcBackend[T, R]{name: name, slots: slots, fn: fn}
}

type funcBackend[T, R any] struct {
	name  string
	slots int
	fn    func(context.Context, T) (R, error)
}

func (b *funcBackend[T, R]) Name() string { return b.name }
func (b *funcBackend[T, R]) Slots() int   { return b.slots }
func (b *funcBackend[T, R]) Run(ctx context.Context, item T) (R, error) {
	return b.fn(ctx, item)
}

// Permanent marks err as non-retryable: the failure is a property of the
// item (a deterministic simulation error), not of the backend that ran
// it, so rescheduling elsewhere would only reproduce it. Permanent(nil)
// is nil. The marker is transparent to errors.Is/As and is stripped
// before the error is delivered.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err}
}

// IsPermanent reports whether err carries the Permanent marker.
func IsPermanent(err error) bool {
	var pe *permanentError
	return errors.As(err, &pe)
}

type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// unwrapPermanent strips the marker so delivered errors read exactly as
// the backend produced them.
func unwrapPermanent(err error) error {
	var pe *permanentError
	if errors.As(err, &pe) {
		return pe.err
	}
	return err
}

// Result is one completed item: its value or final error, plus where and
// how it ran.
type Result[T, R any] struct {
	Item     T
	Index    int    // position of Item in the submitted slice
	Value    R      // valid when Err is nil
	Err      error  // final error after retries, Permanent marker stripped
	Backend  string // backend that produced the final outcome
	Attempts int    // 1 for a first-try success
	Stolen   bool   // final outcome came from a backend other than the initial assignment
}

// Options parameterizes Run. The zero value retries nothing and logs
// nothing.
type Options struct {
	// Retries is how many extra attempts an item gets after a transient
	// failure, each on a backend that has not yet failed it. Negative is
	// treated as 0.
	Retries int
	// Logf, when non-nil, receives steal, retry and backend-removal
	// events.
	Logf func(format string, args ...any)
	// Backoff is the base of the wait a backend observes after a
	// transient failure before pulling its next item: base·2^(n−1) after
	// its n-th consecutive failure, capped at 8·base. Zero means no wait.
	Backoff time.Duration
}

// breakerThreshold is how many transient failures in a row take a
// backend out of rotation (only while another backend stays live) — a
// dead machine should shed its queue to the survivors, not grind through
// the grid one failed attempt at a time.
const breakerThreshold = 3

// backoff returns the wait after the n-th consecutive failure (n ≥ 1):
// base doubling per failure, capped at 8·base.
func backoff(base time.Duration, n int) time.Duration {
	if n > 4 {
		n = 4
	}
	return base << (n - 1)
}

// Run schedules items over the backends and returns a channel delivering
// one Result per item. The channel closes when every item has a final
// outcome or, after ctx is cancelled, once in-flight items abort — no
// workers leak either way. Callers must drain the channel or cancel ctx;
// abandoning it while ctx stays live blocks the workers.
func Run[T, R any](ctx context.Context, items []T, backends []Backend[T, R], opts Options) (<-chan Result[T, R], error) {
	if len(backends) == 0 {
		return nil, errors.New("sched: no backends")
	}
	if opts.Retries < 0 {
		opts.Retries = 0
	}
	st := &state[T, R]{
		queues:   make([][]*task[T], len(backends)),
		live:     make([]bool, len(backends)),
		consec:   make([]int, len(backends)),
		backends: backends,
		pending:  len(items),
		opts:     opts,
		out:      make(chan Result[T, R]),
	}
	st.cond = sync.NewCond(&st.mu)
	for i := range st.live {
		st.live[i] = true
	}
	// Deal items round-robin: deterministic, balanced to within one item,
	// and — because grid plans list expensive high-thread cells
	// contiguously — naturally interleaving heavy and light work.
	for i := range items {
		bi := i % len(backends)
		st.queues[bi] = append(st.queues[bi], &task[T]{item: items[i], index: i, origin: bi})
	}

	var wg sync.WaitGroup
	for bi, b := range backends {
		slots := b.Slots()
		if slots < 1 {
			slots = 1
		}
		if slots > len(items) {
			// Concurrency can never usefully exceed the item count; a
			// one-cell run must not spin up a whole worker fleet.
			slots = len(items)
		}
		for w := 0; w < slots; w++ {
			wg.Add(1)
			go func(bi int, b Backend[T, R]) {
				defer wg.Done()
				st.worker(ctx, bi, b)
			}(bi, b)
		}
	}
	workersDone := make(chan struct{})
	// Cancellation watcher: cond.Wait cannot observe ctx directly, so a
	// broadcast wakes the idle workers when the context fires. The watcher
	// exits with the workers, so a Run under context.Background leaks
	// nothing.
	go func() {
		select {
		case <-ctx.Done():
			st.mu.Lock()
			st.cancelled = true
			st.mu.Unlock()
			st.cond.Broadcast()
		case <-workersDone:
		}
	}()
	go func() {
		wg.Wait()
		close(workersDone)
		close(st.out)
	}()
	return st.out, nil
}

// ForEach runs fn(0..n-1) over at most parallel concurrent workers
// (parallel < 1 selects GOMAXPROCS) and returns the first error. Plain
// errors do not stop the sweep — items are independent — but a cancelled
// context stops dispatching and drains the workers.
func ForEach(ctx context.Context, parallel, n int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if parallel < 1 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if parallel > n {
		parallel = n
	}
	items := make([]int, n)
	for i := range items {
		items[i] = i
	}
	b := NewFunc("foreach", parallel, func(_ context.Context, i int) (struct{}, error) {
		// Permanent: fn's errors are the items' own, never the worker's.
		return struct{}{}, Permanent(fn(i))
	})
	ch, err := Run(ctx, items, []Backend[int, struct{}]{b}, Options{})
	if err != nil {
		return err
	}
	var first error
	for r := range ch {
		if r.Err != nil && first == nil {
			first = r.Err
		}
	}
	if err := ctx.Err(); err != nil && first == nil {
		first = err
	}
	return first
}

// task is one schedulable item and its retry history.
type task[T any] struct {
	item     T
	index    int
	origin   int // backend the initial deal assigned
	attempts int
	excluded map[int]bool // backends that failed this task
	lastErr  error
}

// state is the shared scheduler state of one Run.
type state[T, R any] struct {
	mu        sync.Mutex
	cond      *sync.Cond
	queues    [][]*task[T]
	live      []bool
	consec    []int // consecutive transient failures per backend
	backends  []Backend[T, R]
	pending   int // items without a final outcome
	cancelled bool

	opts Options
	out  chan Result[T, R]
}

func (st *state[T, R]) logf(format string, args ...any) {
	if st.opts.Logf != nil {
		st.opts.Logf(format, args...)
	}
}

// next blocks until backend bi has something to run: its own next queued
// task, or one stolen from the tail of the longest foreign queue that
// holds a task this backend has not failed. It returns ok=false when the
// run is over for this backend (nothing pending, cancelled, or the
// backend was taken out of rotation).
func (st *state[T, R]) next(bi int) (*task[T], bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for {
		if st.cancelled || st.pending == 0 || !st.live[bi] {
			return nil, false
		}
		// Own queue first, oldest item first.
		if t := popEligible(&st.queues[bi], bi, false); t != nil {
			return t, true
		}
		// Steal from the victim with the longest queue.
		victim, best := -1, 0
		for vi := range st.queues {
			if vi == bi {
				continue
			}
			if n := eligibleCount(st.queues[vi], bi); n > 0 && n > best {
				victim, best = vi, n
			}
		}
		if victim >= 0 {
			t := popEligible(&st.queues[victim], bi, true)
			st.logf("sched: %s steals item %d from %s", st.backends[bi].Name(), t.index, st.backends[victim].Name())
			return t, true
		}
		st.cond.Wait()
	}
}

// eligibleCount counts queued tasks backend bi may run.
func eligibleCount[T any](q []*task[T], bi int) int {
	n := 0
	for _, t := range q {
		if !t.excluded[bi] {
			n++
		}
	}
	return n
}

// popEligible removes and returns the first (fromTail=false) or last
// (fromTail=true) task in q that backend bi has not failed, or nil.
func popEligible[T any](q *[]*task[T], bi int, fromTail bool) *task[T] {
	s := *q
	if fromTail {
		for i := len(s) - 1; i >= 0; i-- {
			if !s[i].excluded[bi] {
				t := s[i]
				*q = append(s[:i], s[i+1:]...)
				return t
			}
		}
		return nil
	}
	for i := range s {
		if !s[i].excluded[bi] {
			t := s[i]
			*q = append(s[:i], s[i+1:]...)
			return t
		}
	}
	return nil
}

// deliver sends a final outcome and retires the item.
func (st *state[T, R]) deliver(ctx context.Context, r Result[T, R]) {
	select {
	case st.out <- r:
	case <-ctx.Done():
		// Consumer cancelled; the outcome is dropped, matching the
		// pre-sched worker pools.
	}
	st.mu.Lock()
	st.pending--
	finished := st.pending == 0
	st.mu.Unlock()
	if finished {
		st.cond.Broadcast()
	}
}

// requeue reschedules a transiently failed task onto the least-loaded
// live backend that has not failed it. When every live backend has
// already failed the task but retry budget remains, the exclusions are
// forgiven — a backend that failed once may have recovered (a momentary
// 503, a network blip), and trying it again beats giving up; the
// worker-side failure backoff spaces those repeat attempts. requeue
// reports whether the task is final (budget exhausted or no live
// backend left at all).
func (st *state[T, R]) requeue(t *task[T], failed int, budget int) bool {
	st.mu.Lock()
	if t.excluded == nil {
		t.excluded = make(map[int]bool)
	}
	t.excluded[failed] = true
	if t.attempts > budget {
		st.mu.Unlock()
		return true
	}
	pick := func(ignoreExclusions bool) int {
		best := -1
		for bi := range st.queues {
			if !st.live[bi] || (!ignoreExclusions && t.excluded[bi]) {
				continue
			}
			if best < 0 || len(st.queues[bi]) < len(st.queues[best]) {
				best = bi
			}
		}
		return best
	}
	best := pick(false)
	if best < 0 {
		if best = pick(true); best >= 0 {
			t.excluded = nil // forgiven: the task is poppable everywhere again
		}
	}
	if best < 0 {
		st.mu.Unlock()
		return true
	}
	st.queues[best] = append(st.queues[best], t)
	st.logf("sched: item %d retries on %s (attempt %d): %v",
		t.index, st.backends[best].Name(), t.attempts+1, t.lastErr)
	st.mu.Unlock()
	st.cond.Broadcast()
	return false
}

// noteOutcome updates the backend's consecutive-failure count and, past
// the threshold, takes it out of rotation while another backend is live.
// Tasks stranded by the removal — queued with every remaining live
// backend excluded — have their exclusions forgiven so a survivor can
// pick them up: queued tasks always have retry budget left (requeue
// enforces it), so forgiving is always the right call here.
func (st *state[T, R]) noteOutcome(bi int, failed bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if !failed {
		st.consec[bi] = 0
		return
	}
	st.consec[bi]++
	if st.consec[bi] < breakerThreshold || !st.live[bi] {
		return
	}
	liveOthers := 0
	for i, l := range st.live {
		if l && i != bi {
			liveOthers++
		}
	}
	if liveOthers == 0 {
		return // last backend standing keeps trying
	}
	st.live[bi] = false
	st.logf("sched: backend %s removed after %d consecutive failures", st.backends[bi].Name(), st.consec[bi])
	for qi := range st.queues {
		for _, t := range st.queues[qi] {
			runnable := false
			for i, l := range st.live {
				if l && !t.excluded[i] {
					runnable = true
					break
				}
			}
			if !runnable {
				t.excluded = nil
			}
		}
	}
	st.cond.Broadcast()
}

// worker is one slot of one backend: pull (or steal) a task, run it,
// deliver or reschedule.
func (st *state[T, R]) worker(ctx context.Context, bi int, b Backend[T, R]) {
	for {
		t, ok := st.next(bi)
		if !ok {
			return
		}
		t.attempts++
		v, err := b.Run(ctx, t.item)
		if err == nil {
			st.noteOutcome(bi, false)
			st.deliver(ctx, Result[T, R]{
				Item: t.item, Index: t.index, Value: v,
				Backend: b.Name(), Attempts: t.attempts, Stolen: bi != t.origin,
			})
			continue
		}
		if ctx.Err() != nil {
			// Cancellation abort, not a failure: the run is over.
			return
		}
		t.lastErr = err
		if IsPermanent(err) {
			// The item's own fault; the backend stays in good standing.
			st.deliver(ctx, Result[T, R]{
				Item: t.item, Index: t.index, Err: unwrapPermanent(err),
				Backend: b.Name(), Attempts: t.attempts, Stolen: bi != t.origin,
			})
			continue
		}
		st.noteOutcome(bi, true)
		if st.requeue(t, bi, st.opts.Retries) {
			st.deliver(ctx, Result[T, R]{
				Item: t.item, Index: t.index, Err: unwrapPermanent(err),
				Backend: b.Name(), Attempts: t.attempts, Stolen: bi != t.origin,
			})
		}
		// Back off before pulling the next item: a backend that 503'd on
		// admission frees a slot in well under a second, and hammering it
		// would burn retry budgets for nothing.
		st.mu.Lock()
		n := st.consec[bi]
		st.mu.Unlock()
		if n > 0 && st.opts.Backoff > 0 {
			select {
			case <-time.After(backoff(st.opts.Backoff, n)):
			case <-ctx.Done():
				return
			}
		}
	}
}
