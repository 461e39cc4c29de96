package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
)

// tally counts operations for the verdict. An operation is one row a
// sweep must deliver or one query; attempted counts every operation the
// workload issued, failed the ones that errored, were refused, went
// missing or differed from the local render.
type tally struct {
	attempted, failed atomic.Int64

	mu     sync.Mutex
	errors int
}

// fail records n failed operations and reports the first few causes on
// standard error.
func (t *tally) fail(n int64, err error) {
	if n <= 0 {
		return
	}
	t.failed.Add(n)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.errors++; t.errors <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: %d failed: %v\n", n, err)
	}
}

// op is one unit of closed-loop work. weight is how many operations it
// stands for; run reports how many of them failed. A run that returns an
// error fails its whole weight.
type op struct {
	weight int64
	run    func(ctx context.Context) (failed int64, err error)
}

// closedLoop drives ops with the given number of clients: each client
// takes the next op only after its previous one completed. Every op is
// counted as attempted when a client takes it, including ops refused
// because ctx ended, so a stalled system cannot shrink its own
// denominator.
func closedLoop(ctx context.Context, clients int, ops []op, t *tally) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				o := ops[i]
				t.attempted.Add(o.weight)
				if err := ctx.Err(); err != nil {
					t.fail(o.weight, fmt.Errorf("refused: %w", err))
					continue
				}
				failed, err := o.run(ctx)
				if err != nil {
					failed = o.weight
				} else if failed > 0 {
					err = fmt.Errorf("%d of %d operations differ or are missing", failed, o.weight)
				}
				t.fail(min(failed, o.weight), err)
			}
		}()
	}
	wg.Wait()
}
