// Package vexsmt is the public API of the SMT clustered-VLIW split-issue
// simulator (Gupta, Sánchez and López, IPDPS workshops 2010). It is the
// only supported entry point for external programs: everything under
// internal/ may change without notice, while this package's types map
// one-to-one onto the versioned JSON results schema (SchemaVersion).
//
// A Service wraps the concurrent experiment engine behind functional
// options:
//
//	svc, err := vexsmt.New(
//		vexsmt.WithScale(500),      // 1/500 of paper scale
//		vexsmt.WithSeed(1),
//		vexsmt.WithParallelism(8),
//	)
//
// Work is described by a Plan — named paper figures, explicit cells, or a
// sweep of every technique — and executed either as a blocking
// batch (Collect) or as a stream that yields each cell the moment its
// simulation completes:
//
//	results, err := svc.Stream(ctx, vexsmt.Plan{Figures: []string{"14"}})
//	for cell := range results {
//		fmt.Printf("%s  IPC %.3f\n", cell.CellSpec, cell.IPC)
//	}
//
// Cancellation and determinism contract: cancelling ctx stops the stream
// within one simulated timeslice and leaks no workers, and any result the
// stream does deliver is bit-identical to the one a serial run would have
// produced — cells derive their random streams from workload identity
// alone, never from scheduling.
package vexsmt
