package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/dispatch"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/wal"
	"repro/internal/warehouse"
	"repro/rf/api"
	"repro/rf/client"
)

// service is one in-process rfserved, wired as cmd/rfserved wires it
// with -store, -wal-dir and -warehouse-dir (and -dispatch plus one
// joined worker for the fleet workload), listening on loopback.
type service struct {
	dir   string
	st    *store.Store
	wals  []*wal.WAL // server journal first, then the coordinator's
	wh    *warehouse.Warehouse
	coord *dispatch.Coordinator
	srv   *server.Server
	hs    *http.Server
	serve chan error
	cl    *client.Client
	tp    *http.Transport

	stopWorker context.CancelFunc
	worker     chan error
}

// serviceOptions selects the fleet wiring and the store contents.
type serviceOptions struct {
	fleet bool
	// prewarm fills the store before the server starts.
	prewarm func(sweep.Cache)
}

// startService builds and starts a fresh service under b.dir.
func (b *bench) startService(i int, ls *layerState, o serviceOptions) (*service, error) {
	s := &service{dir: filepath.Join(b.dir, fmt.Sprintf("service-%d", i))}
	ok := false
	defer func() {
		if !ok {
			s.stop()
		}
	}()
	var err error
	if s.st, err = store.Open(filepath.Join(s.dir, "store"), store.Options{}); err != nil {
		return nil, err
	}
	cache := b.storeCache(s.st, ls)
	if o.prewarm != nil {
		o.prewarm(cache)
	}
	journals := []string{"server"}
	if o.fleet {
		journals = append(journals, "coordinator")
	}
	for _, name := range journals {
		w, err := wal.Open(filepath.Join(s.dir, "wal", name), wal.Options{})
		if err != nil {
			return nil, err
		}
		s.wals = append(s.wals, w)
	}
	if s.wh, err = warehouse.Open(filepath.Join(s.dir, "warehouse"), warehouse.Options{}); err != nil {
		return nil, err
	}
	cfg := server.Config{
		Cache:     sweep.Tiered(sweep.NewMemCache(), cache),
		Journal:   s.wals[0],
		Warehouse: s.wh,
	}
	if o.fleet {
		s.coord = dispatch.NewCoordinator(dispatch.Config{Journal: s.wals[1]})
		cfg.Dispatcher = s.coord
		cfg.ExtraJournals = map[string]*wal.WAL{"coordinator": s.wals[1]}
	}
	s.srv = server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	base := "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.srv}
	s.serve = make(chan error, 1)
	go func() { s.serve <- s.hs.Serve(ln) }()
	s.tp = &http.Transport{MaxIdleConnsPerHost: b.nproc}
	s.cl = client.New(base, client.WithHTTPClient(&http.Client{Transport: s.tp}))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := s.cl.Version(ctx); err != nil {
		return nil, err
	}
	if o.fleet {
		wctx, stop := context.WithCancel(context.Background())
		s.stopWorker = stop
		s.worker = make(chan error, 1)
		wcfg := dispatch.WorkerConfig{Coordinator: base, Name: "perfbench", Capacity: b.nproc}
		if b.tr != nil {
			wcfg.Simulate, wcfg.SimulateBatch = b.workerHooks(ls)
		}
		go func() { s.worker <- dispatch.RunWorker(wctx, wcfg) }()
		for s.coord.Stats().Workers == 0 {
			select {
			case err := <-s.worker:
				s.worker = nil
				return nil, fmt.Errorf("worker: %w", err)
			case <-ctx.Done():
				return nil, errors.New("worker did not register")
			case <-time.After(100 * time.Microsecond):
			}
		}
	}
	ok = true
	return s, nil
}

// workerHooks wraps the worker's default execution hooks, timing them
// without changing how jobs are grouped.
func (b *bench) workerHooks(ls *layerState) (func(sweep.Job) sim.Result, func([]sweep.Job) []sim.Result) {
	record := func(js []sweep.Job, start time.Time) {
		end := time.Now()
		if !b.tr.on() {
			return
		}
		ls.workerSimNS.Add(int64(end.Sub(start)))
		for _, j := range js {
			b.tr.keyed("dispatch.worker_sim", j.Key(), start, end)
		}
	}
	one := func(j sweep.Job) sim.Result {
		start := time.Now()
		res := sweep.Simulate(j)
		record([]sweep.Job{j}, start)
		return res
	}
	batch := func(js []sweep.Job) []sim.Result {
		start := time.Now()
		res := sweep.SimulateLockstep(js)
		record(js, start)
		return res
	}
	return one, batch
}

// stop tears the service down in rfserved's shutdown order and removes
// its directory.
func (s *service) stop() {
	if s.stopWorker != nil {
		s.stopWorker()
		if s.worker != nil {
			<-s.worker
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if s.srv != nil {
		s.srv.Shutdown(ctx)
	}
	if s.hs != nil {
		s.hs.Shutdown(ctx)
		<-s.serve
	}
	if s.tp != nil {
		s.tp.CloseIdleConnections()
	}
	if s.st != nil {
		s.st.Close()
	}
	for i := len(s.wals) - 1; i >= 0; i-- {
		s.wals[i].Close()
	}
	os.RemoveAll(s.dir)
}

// lineRecorder collects a result stream's lines and when the first one
// arrived.
type lineRecorder struct {
	first time.Time
	lines [][]byte
}

func (l *lineRecorder) Write(p []byte) (int, error) {
	if l.first.IsZero() {
		l.first = time.Now()
	}
	n := len(p)
	for len(p) > 0 {
		i := bytes.IndexByte(p, '\n')
		if i < 0 {
			return 0, errors.New("partial line")
		}
		l.lines = append(l.lines, bytes.Clone(p[:i+1]))
		p = p[i+1:]
	}
	return n, nil
}

// sweepResult is what one client observed of one sweep.
type sweepResult struct {
	id               string
	start, end       time.Time
	first            time.Time
	failed           int64
	queryStart, qEnd time.Time
}

// runSweep submits one sweep, streams its rows and checks them; with a
// query it then waits for the sweep's warehouse segment and issues the
// query, checking the answer against want. Spans cover each call.
func (b *bench) runSweep(ctx context.Context, s *service, ls *layerState, in *sweepInput, e *expectation,
	q func(id string) *api.Query, want []byte, req string) (*sweepResult, error) {
	r := &sweepResult{start: time.Now()}
	ack, err := s.cl.Submit(ctx, in.spec)
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	submitted := time.Now()
	r.id = ack.ID
	var rec lineRecorder
	if err := s.cl.StreamResults(ctx, ack.ID, &rec); err != nil {
		return nil, fmt.Errorf("stream %s: %w", ack.ID, err)
	}
	r.end = time.Now()
	r.first = rec.first
	r.failed = e.check(rec.lines)
	traced := b.tr.on()
	root := -1
	if traced {
		ls.submitMS.add(ms(submitted.Sub(r.start)))
		ls.streamMS.add(ms(r.end.Sub(submitted)))
	}
	if q == nil {
		root = b.tr.root("client.sweep", req, in.keys, r.start, r.end)
	} else {
		// The segment seals just after the stream ends; a query before
		// that would see no rows.
		for !s.wh.Has(ack.ID) {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(100 * time.Microsecond):
			}
		}
		r.queryStart = time.Now()
		res, err := s.cl.Query(ctx, q(ack.ID))
		r.qEnd = time.Now()
		if err != nil {
			return nil, fmt.Errorf("query: %w", err)
		}
		got, err := json.Marshal(res)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(got, want) {
			r.failed++
		}
		root = b.tr.root("client.sweep", req, in.keys, r.start, r.qEnd)
		b.tr.child("server.query", root, r.queryStart, r.qEnd)
		if traced {
			ls.httpQueryMS.add(ms(r.qEnd.Sub(r.queryStart)))
		}
	}
	b.tr.child("server.submit", root, r.start, submitted)
	b.tr.child("server.stream", root, submitted, r.end)
	return r, nil
}

// walRound tracks journal growth for wal.bytes_per_row.
type walRound struct {
	size        int64
	compactions uint64
}

func walState(w *wal.WAL) walRound {
	return walRound{size: w.SizeBytes(), compactions: w.Stats().Compactions}
}

// walGrowth records the server journal's bytes per delivered row between
// two states, unless a compaction in between reset its size.
func (ls *layerState) walGrowth(w0, w1 walRound, rows int64) {
	if w1.compactions == w0.compactions && rows > 0 {
		ls.walBytesPerRow = append(ls.walBytesPerRow, float64(w1.size-w0.size)/float64(rows))
	}
}

// collect accumulates a service's counters before it is torn down.
func (ls *layerState) collect(s *service) {
	ls.addCache(s.srv.CacheStats())
	ls.addStore(s.st)
	for _, w := range s.wals {
		st := w.Stats()
		ls.walAppends += st.Appends
		ls.walFsyncs += st.Fsyncs
		ls.walCompactions += st.Compactions
	}
	ws := s.wh.Stats()
	ls.whRows += ws.Rows
	ls.whBytes += ws.Bytes
	ls.whIngestErrors += ws.IngestErrors
	if s.coord != nil {
		fs := s.coord.Stats()
		ls.fleet.Dispatched += fs.Dispatched
		ls.fleet.Completed += fs.Completed
		ls.fleet.Requeued += fs.Requeued
		ls.fleet.Fallbacks += fs.Fallbacks
	}
}

// directQueries evaluates query documents straight on the warehouse,
// without HTTP, recording the time per query shape.
func (ls *layerState) directQueries(s *service, ids []string) error {
	for n, id := range ids {
		q := analysisQuery(n, id)
		start := time.Now()
		if _, err := s.wh.Query(q, "", false); err != nil {
			return err
		}
		d := time.Since(start)
		ls.directMS.add(ms(d))
		ls.directUS[queryOpIndex(q.Op)].add(float64(d) / float64(time.Microsecond))
	}
	return nil
}

func queryOpIndex(op string) int {
	for i, o := range queryOps {
		if o == op {
			return i
		}
	}
	panic("perfbench: unknown query op " + op)
}

// setQueryLayers records the warehouse query times and the HTTP
// overhead on top of them.
func (b *bench) setQueryLayers(ls *layerState) {
	for i, op := range queryOps {
		b.layer("warehouse.query_us."+op, median(ls.directUS[i].values()))
	}
	if http := ls.httpQueryMS.values(); len(http) > 0 {
		b.layer("server.query_http_overhead_ms", median(http)-median(ls.directMS.values()))
	}
}

// Per-epoch work of service-warm: rounds per epoch, each submitting the
// pool twice, and timed set-ups per epoch.
const (
	warmRounds = 40
	warmSetUps = 4
)

// serviceWarm resubmits a pool of overlapping, already-stored specs
// through a fresh rfserved with store, journal and warehouse: every job
// is a cache hit, so the time goes to HTTP, store reads, journal
// appends, warehouse ingest and queries, and the codec.
func serviceWarm(ctx context.Context, b *bench) error {
	pool, err := warmPool(b.seed)
	if err != nil {
		return err
	}
	ref, exps, err := b.prepare(ctx, pool, pool)
	if err != nil {
		return err
	}
	// Expected answers per pool spec and query shape.
	wants := make([][][]byte, len(pool))
	for i, in := range pool {
		for n := range queryOps {
			want, err := expectQuery(in, exps[in], analysisQuery(n, "expected"))
			if err != nil {
				return err
			}
			wants[i] = append(wants[i], want)
		}
	}
	prewarm := func(c sweep.Cache) {
		for _, j := range ref.jobs {
			k := j.Key()
			c.Put(k, ref.results[k])
		}
	}
	r := newRand(b.seed, "service-warm/order")
	var t totals
	var qt samples
	var ls layerState
	seq, started := 0, 0
	epochs := b.scale(0.6, 6)
	// Epoch -1 warms the process and the machine up over a service of
	// its own; its rows and answers are checked, its figures dropped.
	for e := -1; e < epochs; e++ {
		warm, et, eqt := e < 0, &t, &qt
		if warm {
			et, eqt = &totals{}, &samples{}
		}
		traced := b.tr != nil && e%2 == 1
		if b.tr != nil {
			b.tr.active.Store(traced)
		}
		s, err := setUp(et, warmSetUps, func() (*service, error) {
			started++
			return b.startService(started, &ls, serviceOptions{prewarm: prewarm})
		}, (*service).stop)
		if err != nil {
			return err
		}
		var idsMu sync.Mutex
		var ids []string
		p := startPhase()
		for round := 0; round < warmRounds; round++ {
			var ops []op
			for rep := 0; rep < 2; rep++ {
				for _, i := range r.Perm(len(pool)) {
					in, want, qn := pool[i], wants[i][seq%len(queryOps)], seq
					req := fmt.Sprintf("e%d/%d/%s", e, seq, in.spec.Name)
					seq++
					ops = append(ops, op{weight: int64(len(in.jobs)) + 1, run: func(ctx context.Context) (int64, error) {
						q := func(id string) *api.Query { return analysisQuery(qn, id) }
						res, err := b.runSweep(ctx, s, &ls, in, exps[in], q, want, req)
						if err != nil {
							return 0, err
						}
						et.sweepDone(res.start, res.first, res.end, int64(len(in.jobs)), res.failed, exps[in].instructions)
						eqt.add(ms(res.qEnd.Sub(res.queryStart)))
						idsMu.Lock()
						ids = append(ids, res.id)
						idsMu.Unlock()
						return res.failed, nil
					}})
				}
			}
			w0, w := walState(s.wals[0]), et.begin()
			closedLoop(ctx, b.nproc, ops, &b.t)
			if d := et.end(w); !warm {
				ls.wall(traced, d)
				ls.walGrowth(w0, walState(s.wals[0]), t.rows.Load()-w.rows)
			}
		}
		et.phaseDone(p)
		if !warm {
			ls.collect(s)
		}
		if traced {
			err = ls.directQueries(s, ids[max(0, len(ids)-60):])
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
	qs := qt.values()
	for _, pct := range []float64{50, 90} {
		v, err := tailed("query_ms", qs, pct)
		if err != nil {
			return err
		}
		b.note("query_ms_p%g %.4f ms (%d queries)", pct, v, len(qs))
	}
	if b.tr == nil {
		return nil
	}
	b.setLayerState(&ls)
	b.setQueryLayers(&ls)
	return b.measureDirect(ctx, pool, exps)
}
