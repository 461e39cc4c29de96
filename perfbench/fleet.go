package main

import (
	"context"
	"fmt"
)

// Per-epoch work of fleet-cold: cold sweeps per epoch, and timed
// set-ups per epoch.
const (
	fleetPerEpoch = 40
	fleetSetUps   = 8
)

// fleetCold submits cold sweeps to a coordinator with one joined worker:
// no job of the run repeats, so each one is leased, simulated on the
// worker, reported back, stored, journaled and ingested — the write path
// next to service-warm's read path. In each epoch the clients run one
// continuous closed loop over a fixed number of sweeps against a freshly
// started fleet.
func fleetCold(ctx context.Context, b *bench) error {
	r := newRand(b.seed, "fleet-cold")
	plan := newFleetPlan(r)
	epochs := b.scale(0.25, 4)
	all := make([]*sweepInput, epochs*fleetPerEpoch)
	for i := range all {
		in, err := fleetSweep(r, plan, i)
		if err != nil {
			return err
		}
		all[i] = in
	}
	_, exps, err := b.prepare(ctx, all, all[:fleetPerEpoch])
	if err != nil {
		return err
	}
	var t totals
	var ls layerState
	started := 0
	// Epoch -1 warms the process and the machine up on epoch 0's sweeps,
	// over a fleet of its own; its rows are checked, its figures dropped.
	for e := -1; e < epochs; e++ {
		warm, et := e < 0, &t
		if warm {
			et = &totals{}
		}
		traced := b.tr != nil && e%2 == 1
		if b.tr != nil {
			b.tr.active.Store(traced)
		}
		s, err := setUp(et, fleetSetUps, func() (*service, error) {
			started++
			return b.startService(started, &ls, serviceOptions{fleet: true})
		}, (*service).stop)
		if err != nil {
			return err
		}
		var ops []op
		first := max(e, 0) * fleetPerEpoch
		for _, in := range all[first : first+fleetPerEpoch] {
			in := in
			ops = append(ops, op{weight: int64(len(in.jobs)), run: func(ctx context.Context) (int64, error) {
				res, err := b.runSweep(ctx, s, &ls, in, exps[in], nil, nil, in.spec.Name)
				if err != nil {
					return 0, err
				}
				et.sweepDone(res.start, res.first, res.end, int64(len(in.jobs)), res.failed, exps[in].instructions)
				return res.failed, nil
			}})
		}
		w0 := walState(s.wals[0])
		p := startPhase()
		w := et.begin()
		closedLoop(ctx, b.nproc, ops, &b.t)
		d := et.end(w)
		et.phaseDone(p)
		if !warm {
			ls.wall(traced, d)
			ls.walGrowth(w0, walState(s.wals[0]), t.rows.Load()-w.rows)
			ls.collect(s)
		}
		if traced {
			var ids []string
			for i := 0; i < 30; i++ {
				ids = append(ids, fmt.Sprintf("s%06d", i+1))
			}
			err = ls.directQueries(s, ids)
		}
		s.stop()
		if err != nil {
			return err
		}
	}
	if b.tr != nil {
		b.tr.active.Store(false)
	}
	if err := b.setEndToEnd(&t); err != nil {
		return err
	}
	b.note("dispatch: %d leases, %d results, %d requeues, %d fallbacks",
		ls.fleet.Dispatched, ls.fleet.Completed, ls.fleet.Requeued, ls.fleet.Fallbacks)
	if b.tr == nil {
		return nil
	}
	b.setLayerState(&ls)
	b.setQueryLayers(&ls)
	return b.measureDirect(ctx, all[:fleetPerEpoch], exps)
}
