package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

var bg = context.Background()

// collect drains a Run channel into a map keyed by item index.
func collect[T comparable, R any](t *testing.T, ch <-chan Result[T, R]) map[int]Result[T, R] {
	t.Helper()
	out := make(map[int]Result[T, R])
	for r := range ch {
		if _, dup := out[r.Index]; dup {
			t.Fatalf("item %d delivered twice", r.Index)
		}
		out[r.Index] = r
	}
	return out
}

func ints(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestRunDeliversEveryItemOnce(t *testing.T) {
	b := NewFunc("sq", 4, func(_ context.Context, i int) (int, error) { return i * i, nil })
	ch, err := Run(bg, ints(50), []Backend[int, int]{b}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, ch)
	if len(got) != 50 {
		t.Fatalf("delivered %d items, want 50", len(got))
	}
	for i, r := range got {
		if r.Err != nil || r.Value != i*i || r.Item != i || r.Attempts != 1 {
			t.Fatalf("item %d: %+v", i, r)
		}
	}
}

func TestRunEmptyAndNoBackends(t *testing.T) {
	b := NewFunc("noop", 1, func(_ context.Context, i int) (int, error) { return i, nil })
	ch, err := Run(bg, nil, []Backend[int, int]{b}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(collect(t, ch)) != 0 {
		t.Fatal("empty run delivered items")
	}
	if _, err := Run[int, int](bg, ints(1), nil, Options{}); err == nil {
		t.Fatal("Run with no backends accepted")
	}
}

func TestWorkStealingDrainsStraggler(t *testing.T) {
	// One fast and one very slow backend: the fast one must steal most of
	// the slow one's queue, so the run finishes far sooner than the slow
	// backend could alone, and the delivered results record the steals.
	var slowRan atomic.Int64
	slow := NewFunc("slow", 1, func(ctx context.Context, i int) (int, error) {
		slowRan.Add(1)
		select {
		case <-time.After(30 * time.Millisecond):
		case <-ctx.Done():
			return 0, ctx.Err()
		}
		return i, nil
	})
	fast := NewFunc("fast", 2, func(_ context.Context, i int) (int, error) { return i, nil })
	ch, err := Run(bg, ints(40), []Backend[int, int]{slow, fast}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, ch)
	if len(got) != 40 {
		t.Fatalf("delivered %d items, want 40", len(got))
	}
	stolen := 0
	for _, r := range got {
		if r.Stolen {
			stolen++
		}
	}
	if stolen == 0 {
		t.Fatal("fast backend never stole from the straggler")
	}
	if n := slowRan.Load(); n >= 40 {
		t.Fatalf("slow backend ran all %d items — nothing was stolen", n)
	}
}

func TestTransientFailureFailsOverAndRecords(t *testing.T) {
	// Backend "flaky" fails every item; "steady" runs everything. With one
	// retry, every item must complete, and items that started on flaky
	// carry Attempts == 2.
	flaky := NewFunc("flaky", 1, func(_ context.Context, i int) (int, error) {
		return 0, errors.New("injected")
	})
	steady := NewFunc("steady", 2, func(_ context.Context, i int) (int, error) { return i + 100, nil })
	ch, err := Run(bg, ints(10), []Backend[int, int]{flaky, steady}, Options{Retries: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, ch)
	if len(got) != 10 {
		t.Fatalf("delivered %d items, want 10", len(got))
	}
	retried := 0
	for i, r := range got {
		if r.Err != nil {
			t.Fatalf("item %d failed: %v", i, r.Err)
		}
		if r.Value != i+100 || r.Backend != "steady" {
			t.Fatalf("item %d: %+v", i, r)
		}
		if r.Attempts > 1 {
			retried++
		}
	}
	if retried == 0 {
		t.Fatal("no item records a retry — flaky was never tried")
	}
}

func TestPermanentErrorNotRetried(t *testing.T) {
	var attempts atomic.Int64
	bad := NewFunc("bad", 1, func(_ context.Context, i int) (int, error) {
		attempts.Add(1)
		return 0, Permanent(fmt.Errorf("cell %d is broken", i))
	})
	ch, err := Run(bg, []int{7}, []Backend[int, int]{bad}, Options{Retries: 3})
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, ch)
	r := got[0]
	if r.Err == nil || r.Attempts != 1 || attempts.Load() != 1 {
		t.Fatalf("permanent error was retried: %+v (attempts %d)", r, attempts.Load())
	}
	if IsPermanent(r.Err) {
		t.Fatal("delivered error still carries the Permanent marker")
	}
	if r.Err.Error() != "cell 7 is broken" {
		t.Fatalf("error text mangled: %q", r.Err)
	}
}

func TestAllBackendsFailExhaustsBudget(t *testing.T) {
	fail := func(name string) Backend[int, int] {
		return NewFunc(name, 1, func(_ context.Context, i int) (int, error) {
			return 0, errors.New("down: " + name)
		})
	}
	ch, err := Run(bg, ints(3), []Backend[int, int]{fail("a"), fail("b")}, Options{Retries: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, ch)
	if len(got) != 3 {
		t.Fatalf("delivered %d items, want 3", len(got))
	}
	for i, r := range got {
		if r.Err == nil {
			t.Fatalf("item %d succeeded on a dead fleet", i)
		}
		// Exclusions are forgiven while budget remains, so the budget —
		// not the backend count — is the attempt cap.
		if r.Attempts > 3 {
			t.Fatalf("item %d burned %d attempts on a budget of 3", i, r.Attempts)
		}
	}
}

// TestSingleBackendTransientRetry: with one backend, a transient blip
// must be retried on that same backend (exclusions are forgiven while
// retry budget remains), not promoted to a final failure.
func TestSingleBackendTransientRetry(t *testing.T) {
	var calls atomic.Int64
	flaky := NewFunc("flaky", 1, func(_ context.Context, i int) (int, error) {
		if calls.Add(1) == 1 {
			return 0, errors.New("momentary 503")
		}
		return i * 10, nil
	})
	ch, err := Run(bg, []int{4}, []Backend[int, int]{flaky}, Options{Retries: 2})
	if err != nil {
		t.Fatal(err)
	}
	r := collect(t, ch)[0]
	if r.Err != nil {
		t.Fatalf("single-backend transient failure was final: %v", r.Err)
	}
	if r.Value != 40 || r.Attempts != 2 {
		t.Fatalf("result %+v, want value 40 after 2 attempts", r)
	}
}

func TestConsecutiveFailuresRemoveBackend(t *testing.T) {
	// A backend that always fails is taken out of rotation after
	// breakerThreshold, so a long run does not pay one failed
	// attempt (plus backoff) per item.
	var deadRuns atomic.Int64
	dead := NewFunc("dead", 1, func(_ context.Context, i int) (int, error) {
		deadRuns.Add(1)
		return 0, errors.New("down")
	})
	alive := NewFunc("alive", 4, func(_ context.Context, i int) (int, error) { return i, nil })
	removed := make(chan struct{}, 1)
	ch, err := Run(bg, ints(64), []Backend[int, int]{dead, alive}, Options{
		Retries: 2,
		Logf: func(format string, args ...any) {
			if len(args) > 0 {
				if name, ok := args[0].(string); ok && name == "dead" && len(removed) == 0 {
					select {
					case removed <- struct{}{}:
					default:
					}
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, ch)
	if len(got) != 64 {
		t.Fatalf("delivered %d items, want 64", len(got))
	}
	for i, r := range got {
		if r.Err != nil {
			t.Fatalf("item %d failed: %v", i, r.Err)
		}
	}
	if n := deadRuns.Load(); n > breakerThreshold+2 {
		t.Fatalf("dead backend ran %d attempts; breaker never tripped", n)
	}
}

func TestBackoffSchedule(t *testing.T) {
	want := []time.Duration{
		250 * time.Millisecond,
		500 * time.Millisecond,
		time.Second,
		2 * time.Second,
		2 * time.Second, // capped at 8·base
	}
	for i, w := range want {
		if got := backoff(250*time.Millisecond, i+1); got != w {
			t.Errorf("backoff(250ms, %d) = %s, want %s", i+1, got, w)
		}
	}
}

func TestBackoffWaitEndsOnCancel(t *testing.T) {
	// A failing backend starts an hour-long backoff; cancelling must end
	// the wait and close the channel at once.
	ctx, cancel := context.WithCancel(bg)
	failed := make(chan struct{}, 1)
	down := NewFunc("down", 1, func(context.Context, int) (int, error) {
		select {
		case failed <- struct{}{}:
		default:
		}
		return 0, errors.New("down")
	})
	ch, err := Run(ctx, ints(1), []Backend[int, int]{down}, Options{Retries: 5, Backoff: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	<-failed
	cancel()
	deadline := time.After(5 * time.Second)
	for open := true; open; {
		select {
		case _, open = <-ch:
		case <-deadline:
			t.Fatal("channel did not close within 5s of cancellation")
		}
	}
}

func TestCancellationClosesPromptlyNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(bg)
	slow := NewFunc("slow", 4, func(ctx context.Context, i int) (int, error) {
		select {
		case <-time.After(10 * time.Second):
			return i, nil
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	})
	ch, err := Run(ctx, ints(100), []Backend[int, int]{slow}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	cancel()
	deadline := time.After(5 * time.Second)
	for open := true; open; {
		select {
		case _, open = <-ch:
		case <-deadline:
			t.Fatal("channel did not close within 5s of cancellation")
		}
	}
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

func TestForEach(t *testing.T) {
	var ran atomic.Int64
	if err := ForEach(bg, 4, 100, func(i int) error {
		ran.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 100 {
		t.Fatalf("ran %d of 100", ran.Load())
	}
	// Plain errors do not stop the sweep; the first is returned.
	ran.Store(0)
	err := ForEach(bg, 2, 10, func(i int) error {
		ran.Add(1)
		if i%2 == 1 {
			return fmt.Errorf("odd %d", i)
		}
		return nil
	})
	if err == nil {
		t.Fatal("error swallowed")
	}
	if ran.Load() != 10 {
		t.Fatalf("sweep stopped early: ran %d of 10", ran.Load())
	}
	// Serial ForEach visits items in order.
	var order []int
	if err := ForEach(bg, 1, 5, func(i int) error { order = append(order, i); return nil }); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order %v", order)
		}
	}
	// A cancelled context surfaces as an error.
	cancelled, cancel := context.WithCancel(bg)
	cancel()
	if err := ForEach(cancelled, 2, 10, func(i int) error { return nil }); err == nil {
		t.Fatal("cancelled ForEach returned nil")
	}
}
