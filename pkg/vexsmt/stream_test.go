package vexsmt

import (
	"context"
	"runtime"
	"testing"
	"time"
)

func TestStreamCancellationPromptNoLeak(t *testing.T) {
	// Cancelling mid-grid must close the stream well before the grid could
	// finish, and every worker goroutine must unwind. Scale 50 makes each
	// cell ~4M instructions, so the 144-cell grid cannot complete in the
	// cancellation window.
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	svc, err := New(WithScale(50), WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	ch, err := svc.Stream(ctx, Plan{Figures: []string{"14", "15", "16"}})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	cancel()
	closeDeadline := time.After(5 * time.Second)
	for open := true; open; {
		select {
		case _, open = <-ch:
		case <-closeDeadline:
			t.Fatal("stream did not close within 5s of cancellation")
		}
	}
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before stream, %d after drain", before, runtime.NumGoroutine())
}

func TestCollectHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	svc, err := New(WithScale(50), WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Collect(ctx, Plan{Figures: []string{"14"}}); err == nil {
		t.Fatal("Collect returned no error under a cancelled context")
	}
}

func TestCancelledCellsResimulate(t *testing.T) {
	// A cell aborted by cancellation must not poison the memo: a fresh
	// context re-simulates it and gets a real result.
	svc := testService(t)
	spec := CellSpec{Mix: "mmmm", Technique: "SMT", Threads: 2}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc.RunCell(cancelled, spec); err == nil {
		t.Fatal("cancelled RunCell returned no error")
	}
	r, err := svc.RunCell(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if r.IPC <= 0 || r.Counters.Instrs <= 0 {
		t.Fatalf("retried cell produced no work: %+v", r)
	}
}
