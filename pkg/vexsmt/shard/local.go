package shard

import (
	"context"
	"fmt"
	"sync/atomic"

	"vexsmt/pkg/vexsmt"
	"vexsmt/pkg/vexsmt/sched"
)

// Local is the in-process backend: it runs jobs directly on a
// *vexsmt.Service. Jobs sharing one Local (or several Locals wrapping
// one Service) share the service's memoization and result cache, which is
// what makes the determinism tests cheap — and it is also the
// single-machine way to use the coordinator without any daemon.
type Local struct {
	name    string
	svc     *vexsmt.Service
	running atomic.Int64
}

// NewLocal wraps svc as a backend. The name only labels logs and errors.
func NewLocal(name string, svc *vexsmt.Service) *Local {
	return &Local{name: name, svc: svc}
}

// Name implements Backend.
func (l *Local) Name() string { return l.name }

// Health reports the wrapped service's configuration; capacity is the
// service's worker-pool bound and running counts jobs currently inside
// Run.
func (l *Local) Health(ctx context.Context) (Health, error) {
	return Health{
		Capacity:      l.svc.Parallelism(),
		Running:       int(l.running.Load()),
		Scale:         l.svc.Scale(),
		Seed:          l.svc.Seed(),
		SchemaVersion: vexsmt.SchemaVersion,
	}, nil
}

// Run implements Backend by streaming the job's cells off the wrapped
// service. A service is immutable after construction, so a job asking for
// a different seed or scale is an error, not a silent reconfiguration;
// Job.CacheOff is ignored for the same reason (the service's cache policy
// is fixed — build the service without WithCache to run uncached).
func (l *Local) Run(ctx context.Context, job Job) (*vexsmt.ResultSet, error) {
	if job.Scale != l.svc.Scale() || job.Seed != l.svc.Seed() {
		return nil, fmt.Errorf("shard: backend %s runs 1/%d scale seed %d; job wants 1/%d scale seed %d",
			l.name, l.svc.Scale(), l.svc.Seed(), job.Scale, job.Seed)
	}
	l.running.Add(1)
	defer l.running.Add(-1)

	ch, err := l.svc.Stream(ctx, vexsmt.Plan{Cells: job.Cells})
	if err != nil {
		return nil, err
	}
	rs := &vexsmt.ResultSet{Meta: l.svc.Meta()}
	var failed *vexsmt.CellResult
	for cell := range ch {
		if cell.Err != "" {
			// A cancellation abort is not a result; a real failure is
			// remembered while the pool drains.
			if ctx.Err() == nil && failed == nil {
				c := cell
				failed = &c
			}
			continue
		}
		rs.Cells = append(rs.Cells, cell)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if failed != nil {
		// Cells fail deterministically (their seed travels with them), so
		// this failure would reproduce on any backend.
		return nil, sched.Permanent(fmt.Errorf("shard: backend %s: %s: %s",
			l.name, failed.CellSpec, failed.Err))
	}
	rs.Sort()
	return rs, nil
}
